//! The one report schema, its JSON reader/writer, and compare mode.
//!
//! A report is a list of entries, one per (workload, metric), each with its
//! unit and the summary of its samples: n, median, p25, p75, min, max and
//! the highest percentile that has at least ten samples beyond it. Run
//! metadata (seed, threads, CPUs, CPU model, git revision) rides along.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Percentile levels the tail summary may report, highest first.
const TAIL_LEVELS: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];
/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Summary statistics of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub min: f64,
    pub max: f64,
    /// `(level, value)` of the highest supported tail percentile, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples` (must be non-empty and finite).
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            median: quantile(&s, 0.5),
            p25: quantile(&s, 0.25),
            p75: quantile(&s, 0.75),
            min: s[0],
            max: s[s.len() - 1],
            tail: tail_percentile(&s),
        }
    }

    /// A single measured value (n = 1).
    pub fn one(v: f64) -> Summary {
        Summary::of(&[v])
    }

    /// Noise of the median: the inter-quartile range over √n, which is
    /// about the median's standard error. The raw IQR would call a
    /// bimodal operation mix noisy however many samples pin its median.
    pub fn median_noise(&self) -> f64 {
        (self.p75 - self.p25) / (self.n as f64).sqrt()
    }
}

/// Linear-interpolated quantile of sorted samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest of [`TAIL_LEVELS`] with at least [`TAIL_SUPPORT`] samples
/// strictly beyond its nearest-rank position, with its value.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LEVELS.iter().find_map(|&p| {
        // The epsilon keeps float error (99.9 / 100 · 10⁴ > 9990) from
        // bumping an exact rank to the next one.
        let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_SUPPORT).then(|| (p, sorted[rank - 1]))
    })
}

/// One (workload, metric) row of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub summary: Summary,
}

/// Outcome of one workload's run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadStatus {
    pub name: String,
    pub scale: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// A whole report: metadata, workload outcomes, entries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    pub meta: BTreeMap<String, Json>,
    pub workloads: Vec<WorkloadStatus>,
    pub entries: Vec<Entry>,
}

impl Report {
    pub fn entry(&self, workload: &str, metric: &str) -> Option<&Entry> {
        self.entries
            .iter()
            .find(|e| e.workload == workload && e.metric == metric)
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {}", quote(k), v.render());
        }
        out.push_str("\n  },\n  \"workloads\": [");
        for (i, w) in self.workloads.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": {}, \"scale\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}}}",
                quote(&w.name),
                quote(&w.scale),
                w.correct,
                w.attempted,
                w.failed
            );
        }
        out.push_str("\n  ],\n  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let s = &e.summary;
            let (tail_pct, tail) = match s.tail {
                Some((p, v)) => (num(p), num(v)),
                None => ("null".to_owned(), "null".to_owned()),
            };
            let _ = write!(
                out,
                "{sep}\n    {{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"n\": {}, \
                 \"median\": {}, \"p25\": {}, \"p75\": {}, \"min\": {}, \"max\": {}, \
                 \"tail_pct\": {tail_pct}, \"tail\": {tail}}}",
                quote(&e.workload),
                quote(&e.metric),
                quote(&e.unit),
                s.n,
                num(s.median),
                num(s.p25),
                num(s.p75),
                num(s.min),
                num(s.max),
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    pub fn from_json(text: &str) -> Result<Report, String> {
        let doc = Json::parse(text)?;
        let meta = match doc.get("meta") {
            Some(Json::Obj(m)) => m.clone(),
            _ => return Err("report has no \"meta\" object".into()),
        };
        let mut report = Report {
            meta,
            ..Report::default()
        };
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
            report.workloads.push(WorkloadStatus {
                name: w.str_field("name")?,
                scale: w.str_field("scale")?,
                correct: matches!(w.get("correct"), Some(Json::Bool(true))),
                attempted: w.num_field("attempted")? as u64,
                failed: w.num_field("failed")? as u64,
            });
        }
        for e in doc.get("entries").and_then(Json::as_arr).unwrap_or(&[]) {
            let tail = match (
                e.get("tail_pct").and_then(Json::as_f64),
                e.get("tail").and_then(Json::as_f64),
            ) {
                (Some(p), Some(v)) => Some((p, v)),
                _ => None,
            };
            report.entries.push(Entry {
                workload: e.str_field("workload")?,
                metric: e.str_field("metric")?,
                unit: e.str_field("unit")?,
                summary: Summary {
                    n: e.num_field("n")? as usize,
                    median: e.num_field("median")?,
                    p25: e.num_field("p25")?,
                    p75: e.num_field("p75")?,
                    min: e.num_field("min")?,
                    max: e.num_field("max")?,
                    tail,
                },
            });
        }
        Ok(report)
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline median.
    Rel(f64),
    /// An absolute amount in the metric's unit.
    Abs(f64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against baseline `a`. A change larger than the bound in the
/// good direction is an improvement only when it also exceeds the noise of
/// the medians; noise wider than the bound leaves the verdict unresolved
/// unless the two sample ranges do not overlap.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: Bound) -> Verdict {
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // Positive `worse` means b is worse than a.
    let worse = sign * (b.median - a.median);
    let limit = match bound {
        Bound::Rel(r) => r * a.median.abs(),
        Bound::Abs(x) => x,
    };
    let spread = a.median_noise().max(b.median_noise());
    let disjoint_better = sign * (b.max - a.min) < 0.0;
    let disjoint_worse = sign * (b.min - a.max) > 0.0;
    if spread > limit && !(disjoint_better || disjoint_worse) {
        return Verdict::Unresolved;
    }
    if worse > limit {
        Verdict::Regressed
    } else if -worse > limit && (-worse > spread || disjoint_better) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Minimal JSON value: enough for reports and the serving wire format.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn str_field(&self, key: &str) -> Result<String, String> {
        self.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing string field {key:?}"))
    }

    fn num_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing number field {key:?}"))
    }

    pub fn render(&self) -> String {
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(x) => num(*x),
            Json::Str(s) => quote(s),
            Json::Arr(a) => {
                let items: Vec<String> = a.iter().map(Json::render).collect();
                format!("[{}]", items.join(", "))
            }
            Json::Obj(m) => {
                let items: Vec<String> = m
                    .iter()
                    .map(|(k, v)| format!("{}: {}", quote(k), v.render()))
                    .collect();
                format!("{{{}}}", items.join(", "))
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("JSON: {what} at offset {}", self.i))
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            self.err("bad literal")
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            None => self.err("unexpected end"),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return self.err("expected , or ]"),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.ws();
                    if self.b.get(self.i) != Some(&b'"') {
                        return self.err("expected key");
                    }
                    let key = self.string()?;
                    self.ws();
                    if self.b.get(self.i) != Some(&b':') {
                        return self.err("expected :");
                    }
                    self.i += 1;
                    map.insert(key, self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return self.err("expected , or }"),
                    }
                }
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.b.len()
                    && matches!(
                        self.b[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.b[start..self.i])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .map_or_else(|| self.err("bad number"), Ok)
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // opening quote
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.b.get(self.i) else {
                return self.err("unterminated string");
            };
            self.i += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.b.get(self.i) else {
                        return self.err("bad escape");
                    };
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            let Some(ch) = hex else {
                                return self.err("bad \\u escape");
                            };
                            self.i += 4;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|_| "JSON: invalid UTF-8 in string".to_owned())
    }
}

/// Renders a finite number with all its digits (`null` otherwise).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // Fewer than 11 samples support no tail at all.
        assert_eq!(tail_percentile(&samples(10)), None);
        // 40 samples: p75 sits at rank 30, leaving exactly 10 beyond it.
        assert_eq!(tail_percentile(&samples(40)), Some((75.0, 30.0)));
        // 100 samples: p90 (rank 90) has 10 beyond; p95 only 5.
        assert_eq!(tail_percentile(&samples(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&samples(199)), Some((90.0, 180.0)));
        assert_eq!(tail_percentile(&samples(200)), Some((95.0, 190.0)));
        // 1000 samples: p99 (rank 990) has exactly 10 beyond.
        assert_eq!(tail_percentile(&samples(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&samples(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn summary_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.min, s.max, s.median), (1.0, 4.0, 2.5));
        assert_eq!((s.p25, s.p75), (1.75, 3.25));
        assert_eq!(s.n, 4);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = Report::default();
        report.meta.insert("seed".into(), Json::Num(7.0));
        report
            .meta
            .insert("cpu_model".into(), Json::Str("a \"b\"".into()));
        report.workloads.push(WorkloadStatus {
            name: "fit_mf".into(),
            scale: "financial scale 3".into(),
            correct: true,
            attempted: 5,
            failed: 0,
        });
        let samples: Vec<f64> = (0..50).map(|i| 1.0 + f64::from(i) * 0.013).collect();
        report.entries.push(Entry {
            workload: "fit_mf".into(),
            metric: "op_ms".into(),
            unit: "ms".into(),
            summary: Summary::of(&samples),
        });
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn verdicts_respect_bound_and_spread() {
        let a = Summary::of(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = Summary::of(&[100.2, 101.0, 99.1, 100.4, 99.6]);
        let slow = Summary::of(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        let fast = Summary::of(&[80.0, 81.0, 79.0, 80.5, 79.5]);
        let noisy = Summary::of(&[60.0, 140.0, 100.0, 70.0, 130.0]);
        let rel = Bound::Rel(0.1);
        assert_eq!(verdict(&a, &same, Better::Lower, rel), Verdict::Unchanged);
        assert_eq!(verdict(&a, &slow, Better::Lower, rel), Verdict::Regressed);
        assert_eq!(verdict(&a, &fast, Better::Lower, rel), Verdict::Improved);
        assert_eq!(verdict(&a, &fast, Better::Higher, rel), Verdict::Regressed);
        assert_eq!(verdict(&a, &noisy, Better::Lower, rel), Verdict::Unresolved);
        let one = |v| Summary::one(v);
        let abs = Bound::Abs(0.01);
        assert_eq!(
            verdict(&one(0.80), &one(0.795), Better::Higher, abs),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&one(0.80), &one(0.78), Better::Higher, abs),
            Verdict::Regressed
        );
        let zero = Bound::Abs(0.0);
        assert_eq!(
            verdict(&one(0.0), &one(0.01), Better::Lower, zero),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&one(0.0), &one(0.0), Better::Lower, zero),
            Verdict::Unchanged
        );
    }

    #[test]
    fn json_parser_reads_nested_documents() {
        let doc =
            Json::parse(r#"{"a": [1, -2.5e3, "x\"A"], "b": {"c": null, "d": true}}"#).unwrap();
        let a = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2].as_str(), Some("x\"A"));
        assert_eq!(
            doc.get("b").and_then(|b| b.get("d")),
            Some(&Json::Bool(true))
        );
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2] x").is_err());
    }
}
