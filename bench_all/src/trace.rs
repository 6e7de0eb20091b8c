//! In-memory spans around each call the benchmark makes into a layer's
//! public function. Off by default: with tracing off, [`span`] and
//! [`root`] just call their closure, so the untraced run measures the
//! library alone.
//!
//! A span records its name, start, end, parent and the request id of the
//! call tree it belongs to. Spans are kept in memory and written out when
//! the run ends. A span's *self time* is its duration minus the part of
//! that interval its child spans cover.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread: `(span id, request id)`.
    static STACK: RefCell<Vec<(u32, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Name prefix of spans that time the benchmark's own glue, not a layer.
pub const GLUE: &str = "bench.";

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn enable() {
    now_ns();
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`, a child of this thread's open span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    open(name, parent.map(|p| p.0), parent.map_or(0, |p| p.1), f)
}

/// Runs `f` as the root of a new call tree — one set-up repetition or one
/// operation — whose spans all carry request id `req`.
pub fn root<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    open(name, None, req, f)
}

fn open<T>(name: &'static str, parent: Option<u32>, req: u64, f: impl FnOnce() -> T) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push((id, req)));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS
        .lock()
        .expect("span log poisoned by a panicking thread")
        .push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            req,
        });
    out
}

/// Every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    SPANS
        .lock()
        .expect("span log poisoned by a panicking thread")
        .clone()
}

/// One call tree: its root, and the self time of each span name in it.
#[derive(Debug, Clone)]
pub struct Tree {
    pub root: &'static str,
    pub root_ms: f64,
    pub self_ms: BTreeMap<&'static str, f64>,
}

impl Tree {
    /// Summed self time of the named spans in this tree.
    pub fn layer_ms(&self, names: &[&str]) -> f64 {
        names.iter().filter_map(|n| self.self_ms.get(n)).sum()
    }

    /// Share of the root's duration spent in layer spans (anything that
    /// is neither the root itself nor benchmark glue).
    pub fn coverage(&self) -> f64 {
        let layers: f64 = self
            .self_ms
            .iter()
            .filter(|(name, _)| **name != self.root && !name.starts_with(GLUE))
            .map(|(_, ms)| ms)
            .sum();
        if self.root_ms > 0.0 {
            layers / self.root_ms
        } else {
            0.0
        }
    }
}

/// Groups spans into call trees and computes self times.
pub fn trees(spans: &[Span]) -> Vec<Tree> {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ms: HashMap<u32, f64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ms.entry(p).or_default() += s.ms();
        }
    }
    let root_of = |s: &Span| {
        let (mut id, mut parent) = (s.id, s.parent);
        while let Some(p) = parent {
            id = p;
            parent = by_id.get(&p).and_then(|up| up.parent);
        }
        id
    };
    let mut out: BTreeMap<u32, Tree> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        out.insert(
            s.id,
            Tree {
                root: s.name,
                root_ms: s.ms(),
                self_ms: BTreeMap::new(),
            },
        );
    }
    for s in spans {
        // Children run sequentially on their parent's thread, so their
        // durations never overlap and their sum is the covered part.
        let own = (s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        if let Some(tree) = out.get_mut(&root_of(s)) {
            *tree.self_ms.entry(s.name).or_default() += own;
        }
    }
    out.into_values().collect()
}

/// The spans as a JSON array (times in microseconds since tracing began).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}\n  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"req\": {}}}",
            s.id,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.req
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start * 1_000_000,
            end_ns: end * 1_000_000,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            at(2, Some(1), "textify", 1, 3),
            at(4, Some(3), "featurize", 5, 6),
            at(3, Some(1), "featurizer.build", 4, 8),
            at(5, Some(1), "bench.glue", 8, 9),
            at(1, None, "op", 0, 10),
        ];
        let t = &trees(&spans)[0];
        assert_eq!(t.root_ms, 10.0);
        assert_eq!(t.self_ms["op"], 3.0);
        assert_eq!(t.self_ms["featurizer.build"], 3.0);
        assert_eq!(t.self_ms["featurize"], 1.0);
        assert_eq!(t.layer_ms(&["textify", "featurize"]), 3.0);
        // Layers cover 2 + 3 + 1 of the 10 ms; root self time and glue do not count.
        assert!((t.coverage() - 0.6).abs() < 1e-12);
    }
}
