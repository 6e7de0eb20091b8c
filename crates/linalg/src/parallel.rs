//! Deterministic parallelism helpers.
//!
//! Every parallel kernel in this crate shards work by *output rows*: each
//! output row is computed by exactly one thread, running the identical
//! sequential inner loop the single-threaded kernel runs. Because no
//! floating-point accumulation ever crosses a thread boundary, results are
//! bitwise identical at any thread count — `threads: 8` produces the same
//! bytes as `threads: 1`. [`par_map_range`] applies the same rule to the
//! pipeline's per-item maps (textification, discovery, walk generation).

/// Resolves a `threads` knob to an actual worker count: `0` means "use all
/// available parallelism", anything else is taken literally (minimum 1).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Output elements per worker below which a band is not worth a thread: a
/// scoped spawn and join costs tens of microseconds, more than a small
/// call's whole kernel (a 4-row featurize runs in ≈3 µs). Per element,
/// featurize is cheap (two workers break even near 45k elements) and the
/// dense products are dear (two workers finish a 134 × 134 Gram product,
/// 17,956 elements, in ≈31 ms against ≈43 ms), so no one count fits both.
/// This one keeps serving requests of up to 16 rows of 256 inline and
/// splits that Gram product.
const MIN_BAND_LEN: usize = 4096;

/// The number of workers [`for_each_row_band`] splits a buffer of `len`
/// elements in `row_width`-wide rows over: at most `threads` (resolved as
/// by [`resolve_threads`]), one per row and one per 4096 elements. `1`
/// means the call runs inline on the caller's thread.
pub fn band_workers(len: usize, row_width: usize, threads: usize) -> usize {
    let n_rows = len.checked_div(row_width).unwrap_or(0);
    resolve_threads(threads)
        .min(n_rows)
        .min(len / MIN_BAND_LEN)
        .max(1)
}

/// Splits `data` (a row-major buffer of `row_width`-wide rows) into
/// contiguous row bands and runs `f(row_range, band)` for each band on its
/// own scoped thread, over [`band_workers`] workers. With one worker the
/// closure runs inline on the caller's thread over the full range, so the
/// parallel and sequential paths share all code.
///
/// Public so downstream per-row kernels (e.g. the serving featurizer in
/// `leva-core`) inherit the same bitwise-deterministic sharding policy.
pub fn for_each_row_band<F>(data: &mut [f64], row_width: usize, threads: usize, f: F)
where
    F: Fn(std::ops::Range<usize>, &mut [f64]) + Sync,
{
    let n_rows = data.len().checked_div(row_width).unwrap_or(0);
    let workers = band_workers(data.len(), row_width, threads);
    if workers == 1 {
        f(0..n_rows, data);
        return;
    }
    let band = n_rows.div_ceil(workers);
    std::thread::scope(|s| {
        let mut rest = data;
        let mut start = 0;
        while start < n_rows {
            let end = (start + band).min(n_rows);
            let (chunk, tail) = rest.split_at_mut((end - start) * row_width);
            rest = tail;
            let f = &f;
            s.spawn(move || f(start..end, chunk));
            start = end;
        }
    });
}

/// Maps `f` over `0..n` and returns the results in index order.
///
/// The indices are split into contiguous chunks of `n / workers` (rounded
/// up) over `workers = resolve_threads(threads).min(n)`, each chunk on its
/// own scoped thread; with one worker the map runs inline on the caller's
/// thread. Where `f`'s result depends only on its index, the output is
/// identical at any thread count. A panic in `f` reaches the caller.
pub fn par_map_range<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_threads(threads).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| s.spawn(move || (lo..(lo + chunk).min(n)).map(f).collect::<Vec<T>>()))
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            let part = h
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            out.extend(part);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn resolve_explicit_passthrough() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn bands_cover_all_rows_once() {
        // 10 rows, and 10 rows wide enough for each to be a band.
        for (n_rows, width) in [(10, 3), (10, MIN_BAND_LEN)] {
            for threads in [1, 2, 3, 8, 100] {
                let mut data = vec![0.0; n_rows * width];
                for_each_row_band(&mut data, width, threads, |rows, band| {
                    for (offset, r) in rows.enumerate() {
                        for v in &mut band[offset * width..(offset + 1) * width] {
                            *v += (r + 1) as f64;
                        }
                    }
                });
                let want: Vec<f64> = (0..n_rows)
                    .flat_map(|r| std::iter::repeat_n((r + 1) as f64, width))
                    .collect();
                assert_eq!(data, want, "{n_rows}x{width} threads={threads}");
            }
        }
    }

    #[test]
    fn small_calls_stay_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let ids = |len: usize, threads: usize| {
            let ids = std::sync::Mutex::new(Vec::new());
            let mut data = vec![0.0; len];
            for_each_row_band(&mut data, 4, threads, |_, _| {
                ids.lock()
                    .expect("no worker panicked")
                    .push(std::thread::current().id());
            });
            ids.into_inner().expect("no worker panicked")
        };
        // A 4-row call, and one just short of two bands' worth.
        assert_eq!(ids(4 * 4, 8), vec![caller]);
        assert_eq!(band_workers(4 * 4, 4, 8), 1);
        assert_eq!(ids(2 * MIN_BAND_LEN - 4, 2), vec![caller]);
        assert_eq!(band_workers(2 * MIN_BAND_LEN - 4, 4, 2), 1);
        // Two bands' worth splits, each band on its own worker.
        let split = ids(2 * MIN_BAND_LEN, 2);
        assert_eq!(split.len(), 2);
        assert!(!split.contains(&caller));
        assert_eq!(band_workers(2 * MIN_BAND_LEN, 4, 2), 2);
        assert_eq!(ids(64 * MIN_BAND_LEN, 8).len(), 8);
        assert_eq!(band_workers(64 * MIN_BAND_LEN, 4, 8), 8);
    }

    #[test]
    fn par_map_matches_the_sequential_map_in_order() {
        for n in [0, 1, 2, 7, 1000] {
            let want: Vec<usize> = (0..n).map(|i| i * i + 3).collect();
            for threads in [0, 1, 2, 3, 8, 64] {
                assert_eq!(
                    par_map_range(n, threads, |i| i * i + 3),
                    want,
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn par_map_splits_over_threads() {
        for (n, threads) in [(2, 2), (7, 3), (1000, 8)] {
            let ids = par_map_range(n, threads, |_| std::thread::current().id());
            let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
            assert!(
                distinct.len() > 1,
                "n={n} threads={threads} ran on one thread"
            );
        }
    }

    #[test]
    #[should_panic(expected = "index 5 failed")]
    fn par_map_worker_panic_reaches_the_caller() {
        par_map_range(8, 2, |i| {
            if i == 5 {
                panic!("index 5 failed");
            }
            i
        });
    }

    #[test]
    fn empty_buffer_is_fine() {
        let mut data: Vec<f64> = Vec::new();
        for_each_row_band(&mut data, 4, 8, |_, _| {});
        for_each_row_band(&mut data, 0, 8, |_, _| {});
    }
}
