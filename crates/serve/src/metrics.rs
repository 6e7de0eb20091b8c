//! Serving metrics: lock-free counters plus power-of-two-bucket
//! histograms for request latency, socket writes and append phases,
//! rendered as the `/metrics` JSON document.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Width of the [`RateWindow`] in seconds.
const RATE_WINDOW_S: u64 = 10;

/// Sliding-window event rate: per-second row counts over the trailing
/// [`RATE_WINDOW_S`] seconds.
///
/// The daemon originally reported `rows / uptime`, a *lifetime* average:
/// after any idle gap the gauge decayed toward zero even while the
/// server was actively serving, and a long-lived process could never
/// show its current throughput. The window keeps at most one bucket per
/// second, so memory is bounded by the window width and both record and
/// read are O(window).
struct RateWindow {
    /// `(second, rows)` buckets, seconds strictly increasing. Only
    /// buckets newer than `now - RATE_WINDOW_S` are retained.
    buckets: Mutex<VecDeque<(u64, u64)>>,
}

impl RateWindow {
    fn new() -> Self {
        Self {
            buckets: Mutex::new(VecDeque::new()),
        }
    }

    /// Adds `rows` to the bucket for second `now_s`, evicting buckets
    /// that have slid out of the window.
    fn record_at(&self, now_s: u64, rows: u64) {
        let mut b = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        while b
            .front()
            .is_some_and(|&(sec, _)| sec + RATE_WINDOW_S <= now_s)
        {
            b.pop_front();
        }
        match b.back_mut() {
            Some((sec, count)) if *sec == now_s => *count += rows,
            _ => b.push_back((now_s, rows)),
        }
    }

    /// Rows per second over the trailing window ending at `now_s`. The
    /// denominator is the number of whole seconds actually observed
    /// (capped at the window width), so a server younger than the window
    /// is not under-reported.
    fn rate_at(&self, now_s: u64) -> f64 {
        let b = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let rows: u64 = b
            .iter()
            .filter(|&&(sec, _)| sec + RATE_WINDOW_S > now_s && sec <= now_s)
            .map(|&(_, count)| count)
            .sum();
        let span = RATE_WINDOW_S.min(now_s + 1);
        rows as f64 / span as f64
    }
}

/// Histogram over `u64` samples with power-of-two buckets: bucket `0`
/// holds the value `0`, bucket `k` (k ≥ 1) holds values in
/// `[2^(k-1), 2^k)`. Quantiles report the *upper bound* of the bucket the
/// quantile falls in, which is exact enough for latency percentiles and
/// keeps recording to two atomic-free loads under a short lock.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: [u64; 64],
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            counts: [0; 64],
            total: 0,
        }
    }
}

impl LogHistogram {
    /// Bucket index of `value`: `0` for the value 0, else
    /// `64 − leading_zeros(value)`, which maps `[2^(k−1), 2^k)` to bucket
    /// `k`. The raw index reaches 64 for values ≥ 2^63; [`Self::record`]
    /// saturates those into bucket 63, so the top bucket semantically
    /// covers `[2^62, ∞)` — an acceptable distortion for µs latencies,
    /// which a sane clock never pushes past 2^62.
    fn bucket(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value).min(63)] += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`, or
    /// `0` if the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if k == 0 { 0 } else { 1u64 << k };
            }
        }
        u64::MAX
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (if k <= 1 { k as u64 } else { 1u64 << (k - 1) }, c))
            .collect()
    }
}

/// The timed phases of an admin append, in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendPhase {
    /// Cloning the served model and re-seeding its featurizer cache.
    Clone,
    /// The library append: graph patch, retrofit, featurizer-slot patch.
    Apply,
    /// Stamping the patched model (artifact CRC and length) and warming
    /// its cache, before the write lock.
    Stamp,
    /// Publishing it: waiting for and holding the handle's write lock.
    Install,
}

impl AppendPhase {
    /// Every phase, in execution order.
    pub const ALL: [AppendPhase; 4] = [Self::Clone, Self::Apply, Self::Stamp, Self::Install];

    /// The phase's key in the `/metrics` document.
    pub fn name(self) -> &'static str {
        match self {
            Self::Clone => "clone_us",
            Self::Apply => "apply_us",
            Self::Stamp => "stamp_us",
            Self::Install => "install_us",
        }
    }
}

/// All counters and histograms the daemon exposes on `/metrics`.
pub struct Metrics {
    started: Instant,
    /// Featurize requests submitted while the engine was open.
    pub requests: AtomicU64,
    /// Total feature rows produced.
    pub rows: AtomicU64,
    /// Requests that completed with an error.
    pub errors: AtomicU64,
    /// Successful featurize calls, one per request that did not error.
    pub batches: AtomicU64,
    /// Successful hot swaps.
    pub swaps: AtomicU64,
    /// Swap attempts rejected (corrupt or unreadable artifact).
    pub swaps_rejected: AtomicU64,
    /// Admin appends applied (each publishes a patched model epoch).
    pub appends: AtomicU64,
    /// Admin appends rejected (unknown table, arity mismatch …).
    pub appends_rejected: AtomicU64,
    /// Total rows absorbed through admin appends.
    pub rows_appended: AtomicU64,
    latency_us: Mutex<LogHistogram>,
    write_us: Mutex<LogHistogram>,
    /// One histogram per [`AppendPhase`], indexed by its position.
    append_us: Mutex<[LogHistogram; 4]>,
    rate: RateWindow,
}

impl Metrics {
    /// Creates a zeroed metrics block with the uptime clock started now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            swaps_rejected: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            appends_rejected: AtomicU64::new(0),
            rows_appended: AtomicU64::new(0),
            latency_us: Mutex::new(LogHistogram::default()),
            write_us: Mutex::new(LogHistogram::default()),
            append_us: Mutex::new(Default::default()),
            rate: RateWindow::new(),
        }
    }

    /// Records `n` served feature rows: bumps the lifetime counter and
    /// the sliding rate window in one call.
    pub fn record_rows(&self, n: u64) {
        self.rows.fetch_add(n, Ordering::Relaxed);
        self.rate.record_at(self.started.elapsed().as_secs(), n);
    }

    /// Records one request's time in the engine, from submit until its
    /// response is handed back (clamped to ≥ 1 µs so the reported
    /// percentiles are never zero).
    pub fn record_latency_us(&self, us: u64) {
        self.latency_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(us.max(1));
    }

    /// Records how long one featurize response took to write to its
    /// socket (clamped to ≥ 1 µs like [`Self::record_latency_us`]). The
    /// request latency ends when the response is handed back, so a stalled
    /// write shows only here.
    pub fn record_write_us(&self, us: u64) {
        self.write_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(us.max(1));
    }

    /// Records how long one phase of an applied append took (clamped to
    /// ≥ 1 µs like [`Self::record_latency_us`]).
    pub fn record_append_phase_us(&self, phase: AppendPhase, us: u64) {
        self.append_us.lock().unwrap_or_else(|e| e.into_inner())[phase as usize].record(us.max(1));
    }

    /// Snapshot of the latency histogram.
    pub fn latency_snapshot(&self) -> LogHistogram {
        self.latency_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Snapshot of the socket-write histogram.
    pub fn write_snapshot(&self) -> LogHistogram {
        self.write_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Snapshot of the per-phase append histograms, in
    /// [`AppendPhase::ALL`] order.
    pub fn append_phase_snapshot(&self) -> [LogHistogram; 4] {
        self.append_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Seconds since the metrics block was created.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Rows served per second over the trailing ten-second window.
    ///
    /// This is a *current-throughput* gauge, not a lifetime average: an
    /// idle stretch lets it fall to zero once the window drains, and it
    /// immediately reflects new traffic — a multi-day uptime no longer
    /// drags a burst of fresh work down to a near-zero rate.
    pub fn rows_per_s(&self) -> f64 {
        self.rate.rate_at(self.started.elapsed().as_secs())
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LogHistogram::default();
        assert_eq!(h.quantile(0.5), 0);
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        // Nine samples land in the [1,2) bucket → p50 reports its upper
        // bound; the single 100 lands in [64,128) → p99 reports 128.
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.quantile(0.99), 128);
        let buckets = h.buckets();
        assert_eq!(buckets, vec![(1, 9), (64, 1)]);
    }

    /// The bucket map at its boundary values: 0 is its own bucket, 1
    /// opens bucket 1, every exact power of two opens the next bucket,
    /// and `2^k − 1` stays in the bucket below it.
    #[test]
    fn bucket_boundaries_are_exact() {
        assert_eq!(LogHistogram::bucket(0), 0);
        assert_eq!(LogHistogram::bucket(1), 1);
        for k in 1..63u32 {
            let pow = 1u64 << k;
            // 2^k is the *first* value of bucket k+1 …
            assert_eq!(LogHistogram::bucket(pow), k as usize + 1, "2^{k}");
            // … and 2^k − 1 the *last* value of bucket k.
            assert_eq!(LogHistogram::bucket(pow - 1), k as usize, "2^{k}-1");
        }
        assert_eq!(LogHistogram::bucket(u64::MAX), 64); // saturated on record
    }

    /// Values at or beyond 2^63 saturate into the top bucket instead of
    /// indexing out of bounds.
    #[test]
    fn huge_samples_saturate_into_the_top_bucket() {
        let mut h = LogHistogram::default();
        h.record(1u64 << 63);
        h.record(u64::MAX);
        h.record((1u64 << 62) + 1); // genuinely belongs to bucket 63
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets(), vec![(1u64 << 62, 3)]);
        assert_eq!(h.quantile(1.0), 1u64 << 63);
    }

    #[test]
    fn zero_bucket_is_distinct() {
        let mut h = LogHistogram::default();
        h.record(0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.buckets(), vec![(0, 1)]);
    }

    #[test]
    fn latency_is_clamped_nonzero() {
        let m = Metrics::new();
        m.record_latency_us(0);
        assert_eq!(m.latency_snapshot().quantile(0.5), 2);
    }

    /// Regression for the lifetime-average bug: a long idle gap before a
    /// burst must not drag the reported rate toward zero. Under the old
    /// `rows / uptime` formula, 1000 rows served in the last second of a
    /// 1000-second uptime reported ~1 row/s; the window reports the
    /// burst's actual short-term rate.
    #[test]
    fn idle_gap_does_not_drag_rate_to_zero() {
        let w = RateWindow::new();
        w.record_at(1000, 1000);
        let rate = w.rate_at(1000);
        assert!(
            rate >= 100.0,
            "burst after idle under-reported: {rate} rows/s"
        );
    }

    /// The converse: once traffic stops, the gauge drains to zero after
    /// the window slides past — it is a current-throughput gauge, not a
    /// cumulative average that stays inflated forever.
    #[test]
    fn rate_drains_after_window_slides_past() {
        let w = RateWindow::new();
        w.record_at(50, 500);
        assert!(w.rate_at(50) > 0.0);
        assert!(w.rate_at(50 + RATE_WINDOW_S - 1) > 0.0);
        assert_eq!(w.rate_at(50 + RATE_WINDOW_S), 0.0);
    }

    /// Steady traffic reports the per-second rate exactly, and same-second
    /// records share one bucket.
    #[test]
    fn steady_traffic_reports_per_second_rate() {
        let w = RateWindow::new();
        for sec in 0..100u64 {
            w.record_at(sec, 40);
            w.record_at(sec, 2); // same second → same bucket
        }
        assert_eq!(w.rate_at(99), 42.0);
        {
            let b = w.buckets.lock().unwrap();
            assert!(
                b.len() as u64 <= RATE_WINDOW_S,
                "eviction bounds memory: {} buckets",
                b.len()
            );
        }
        // A short stall only dilutes the window, it does not zero it.
        let stalled = w.rate_at(102);
        assert!(stalled > 0.0 && stalled < 42.0, "{stalled}");
    }

    /// A server younger than the window divides by observed seconds, not
    /// the full window width.
    #[test]
    fn young_server_is_not_under_reported() {
        let w = RateWindow::new();
        w.record_at(0, 100);
        w.record_at(1, 100);
        assert_eq!(w.rate_at(1), 100.0);
    }

    #[test]
    fn record_rows_feeds_total_and_window() {
        let m = Metrics::new();
        m.record_rows(7);
        m.record_rows(5);
        assert_eq!(m.rows.load(Ordering::Relaxed), 12);
        assert!(m.rows_per_s() > 0.0);
    }
}
