//! Skip-gram with negative sampling (SGNS), from scratch.
//!
//! This is the "language modeling technique" applied to walk corpora
//! (§4.2.2). SGNS implicitly factorizes the same shifted-PMI matrix the MF
//! path factorizes explicitly (Levy & Goldberg 2014), which is why the paper
//! treats the two embedding methods as interchangeable in quality and
//! different mainly in their time/memory profile.
//!
//! Supports optional Hogwild-style multithreading (lock-free shared updates,
//! as in the reference word2vec implementation); single-threaded training is
//! fully deterministic and is what the test-suite exercises.
//!
//! # The training step
//!
//! Each corpus position draws its window radius and then, up front, the
//! negatives of all its (center, context) pairs: `negative` per pair, in pair
//! order. A pair's *targets* are its context (label 1) followed by those of
//! its negatives that differ from the context (label 0). When the targets are
//! distinct rows, the pair costs two passes over `dim`:
//!
//! 1. the dot products of the center's input row with every target's output
//!    row, computed side by side — independent accumulator chains instead of
//!    one serial chain per target, back to back;
//! 2. after the sigmoid and gradient `g_k` of each target, in target order,
//!    one fused sweep: for each coordinate `i`, `ga += g_k·wo_k[i]` and
//!    `wo_k[i] += g_k·wi[i]` for every target `k` in order, then
//!    `wi[i] += ga`.
//!
//! While a pair trains, the output rows of the next pair are prefetched. The
//! RNG runs one position ahead of training, so the last pair of a position
//! also knows the next position's first pair (and its center's input row).
//!
//! # Why it is bit-identical to training one target at a time
//!
//! Training draws nothing, so the RNG stream is consumed in the same order as
//! by a loop that draws each pair's negatives as it reaches them. Within a
//! pair the input row changes only at the end, and each distinct output row
//! is written only by its own target, so every dot sees the values it would
//! see target by target; each side-by-side dot keeps the reduction order of
//! `leva_linalg::dot` (serial from `-0.0`). The fused sweep applies to every
//! coordinate the same f64 operations in the same order as one loop per
//! target would, and Rust neither contracts to FMA nor reassociates. The
//! tests keep that per-target trainer as an oracle and compare parameters
//! bit for bit.
//!
//! # Fallback
//!
//! When two targets share a row (a negative drawn twice), the later target's
//! dot must see the earlier target's update. Such a pair trains target by
//! target — dot, then update of the output row and of a gradient buffer —
//! and adds the buffer to the input row at the end, like the oracle.

use crate::corpus::Corpus;
use crate::store::EmbeddingStore;
use leva_graph::AliasTable;
use leva_linalg::dot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// SGNS hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct SgnsConfig {
    /// Embedding dimensionality (paper default 100).
    pub dim: usize,
    /// Maximum context window radius (a per-position radius is sampled
    /// uniformly from `1..=window`, as in word2vec).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Starting learning rate, decayed linearly to `min_lr`.
    pub initial_lr: f64,
    /// Floor learning rate.
    pub min_lr: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads (1 = deterministic).
    pub threads: usize,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        Self {
            dim: 100,
            window: 5,
            negative: 5,
            epochs: 5,
            initial_lr: 0.025,
            min_lr: 1e-4,
            seed: 0x5643,
            threads: 1,
        }
    }
}

/// Trained SGNS factors: two row-major `vocab × dim` matrices, row `id`
/// belonging to corpus vocabulary id `id`.
#[derive(Debug, Clone)]
pub struct SgnsModel {
    dim: usize,
    input: Vec<f64>,
    output: Vec<f64>,
}

impl SgnsModel {
    /// Number of trained rows (the corpus vocabulary size).
    pub fn vocab_size(&self) -> usize {
        self.input.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Input ("node") vector of vocabulary id `id` — the embedding Leva uses.
    pub fn input_row(&self, id: usize) -> &[f64] {
        &self.input[id * self.dim..][..self.dim]
    }

    /// Output ("context") vector of vocabulary id `id`.
    pub fn output_row(&self, id: usize) -> &[f64] {
        &self.output[id * self.dim..][..self.dim]
    }

    /// Converts the trained factors into an [`EmbeddingStore`] keyed by the
    /// corpus vocabulary. Uses the mean of the input and output vectors:
    /// first-order (input·output) similarity then survives in the stored
    /// representation, which matters for Leva's value-mean featurization.
    pub fn into_store(self, corpus: &Corpus, dim: usize) -> EmbeddingStore {
        let rows = self.vocab_size();
        let SgnsModel {
            dim: model_dim,
            input: mut mean,
            output,
        } = self;
        for (a, b) in mean.iter_mut().zip(&output) {
            *a = (*a + *b) * 0.5;
        }
        // Freed before the store's matrix is allocated: at most two
        // vocab × dim matrices are alive at once.
        drop(output);
        let mut store = EmbeddingStore::with_symbols(Arc::clone(&corpus.symbols), dim);
        store.reserve(rows);
        for (id, row) in mean.chunks_exact(model_dim).enumerate() {
            store.insert_id(corpus.vocab[id], row);
        }
        store
    }
}

/// Trains SGNS over a corpus; results are deterministic at `threads: 1`.
pub fn train_sgns(corpus: &Corpus, cfg: &SgnsConfig) -> SgnsModel {
    let vocab = corpus.vocab_size();
    let dim = cfg.dim;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Negative-sampling distribution: unigram^0.75 (word2vec).
    let freqs = corpus.frequencies();
    let weights: Vec<f64> = freqs.iter().map(|&f| (f as f64).powf(0.75)).collect();
    let neg_table = AliasTable::new(&weights);

    // Init: input uniform in [-0.5/dim, 0.5/dim], output zeros.
    let mut input = vec![0.0; vocab * dim];
    for v in &mut input {
        *v = (rng.gen::<f64>() - 0.5) / dim as f64;
    }
    let output = vec![0.0; vocab * dim];

    let total_positions = (corpus.total_tokens() * cfg.epochs).max(1);
    let shared = SharedParams { input, output, dim };

    if cfg.threads <= 1 {
        let mut worker = Worker {
            params: &shared,
            cfg,
            neg_table: neg_table.as_ref(),
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(1)),
            processed_base: 0,
            total_positions,
        };
        for epoch in 0..cfg.epochs {
            worker.processed_base = epoch * corpus.total_tokens();
            worker.run(&corpus.sequences);
        }
    } else {
        // Hogwild: threads update the shared parameter arrays without locks;
        // occasional lost updates are benign (word2vec does the same).
        let chunks: Vec<&[Vec<u32>]> = chunk_sequences(&corpus.sequences, cfg.threads);
        // `chunk_sequences` splits by *sentence* count, so chunks can carry
        // very different token counts. Each worker's LR schedule must decay
        // over the positions it will actually process, not an equal-share
        // estimate — otherwise workers with long sentences clamp to `min_lr`
        // early while others never finish decaying.
        let chunk_tokens = chunk_token_counts(&chunks);
        std::thread::scope(|s| {
            for (t, chunk) in chunks.into_iter().enumerate() {
                let shared_ref = &shared;
                let neg_ref = neg_table.as_ref();
                let own_tokens = chunk_tokens[t];
                s.spawn(move || {
                    let mut worker = Worker {
                        params: shared_ref,
                        cfg,
                        neg_table: neg_ref,
                        rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(17 * t as u64 + 1)),
                        processed_base: 0,
                        total_positions: (own_tokens * cfg.epochs).max(1),
                    };
                    for epoch in 0..cfg.epochs {
                        worker.processed_base = epoch * own_tokens;
                        worker.run(chunk);
                    }
                });
            }
        });
    }

    let SharedParams { input, output, dim } = shared;
    SgnsModel { dim, input, output }
}

/// Shared parameter arrays. With `threads > 1` these are mutated through
/// raw pointers Hogwild-style; the data races are deliberate and benign for
/// SGD on disjoint-ish rows (see Recht et al., NIPS'11).
struct SharedParams {
    input: Vec<f64>,
    output: Vec<f64>,
    dim: usize,
}

unsafe impl Sync for SharedParams {}

impl SharedParams {
    /// Pointer to row `id` of a parameter matrix.
    fn row_ptr(vec: &[f64], id: u32, dim: usize) -> *mut f64 {
        vec[id as usize * dim..][..dim].as_ptr() as *mut f64
    }

    /// Mutable view of row `id` of a parameter matrix.
    ///
    /// # Safety
    ///
    /// While the view lives, this thread must hold no other reference
    /// into the row. Other Hogwild workers may write it concurrently; those
    /// races are the accepted cost of lock-free training.
    #[allow(clippy::mut_from_ref)]
    unsafe fn row_mut(vec: &[f64], id: u32, dim: usize) -> &mut [f64] {
        std::slice::from_raw_parts_mut(Self::row_ptr(vec, id, dim), dim)
    }
}

struct Worker<'a> {
    params: &'a SharedParams,
    cfg: &'a SgnsConfig,
    neg_table: Option<&'a AliasTable>,
    rng: StdRng,
    processed_base: usize,
    total_positions: usize,
}

/// One position's draws: its context tokens in window order, and
/// `negative` negatives per context.
#[derive(Default)]
struct Window {
    contexts: Vec<u32>,
    negatives: Vec<u32>,
}

impl Window {
    /// Context and negatives of pair `j`.
    fn pair(&self, j: usize, negative: usize) -> (u32, &[u32]) {
        (
            self.contexts[j],
            &self.negatives[j * negative..][..negative],
        )
    }
}

/// Per-worker buffers of the training step, reused across pairs.
#[derive(Default)]
struct Scratch {
    /// The current pair's targets: the context, then the kept negatives.
    targets: Vec<u32>,
    /// Output-row pointers of the targets (fast path).
    rows: Vec<*mut f64>,
    /// Per target: the dot product, then the gradient scale (fast path).
    scores: Vec<f64>,
    /// Input-row gradient (fallback only).
    grad: Vec<f64>,
}

impl Worker<'_> {
    fn run(&mut self, sequences: &[Vec<u32>]) {
        // Without a negative table no pair draws negatives.
        let negative = self.neg_table.map_or(0, |_| self.cfg.negative);
        let mut processed = self.processed_base;
        let mut s = Scratch::default();
        // Positions are drawn one ahead of training, so the last pair of a
        // position can prefetch the first pair of the next. Training draws
        // nothing, so the RNG stream keeps its order.
        let (mut window, mut ahead) = (Window::default(), Window::default());
        let dim = self.params.dim;
        for seq in sequences {
            if !seq.is_empty() {
                self.draw_window(seq, 0, negative, &mut ahead);
            }
            for (pos, &center) in seq.iter().enumerate() {
                std::mem::swap(&mut window, &mut ahead);
                if let Some(&next) = seq.get(pos + 1) {
                    self.draw_window(seq, pos + 1, negative, &mut ahead);
                    prefetch_row(SharedParams::row_ptr(&self.params.input, next, dim), dim);
                } else {
                    ahead.contexts.clear();
                }
                let lr = self.current_lr(processed);
                processed += 1;
                let pairs = window.contexts.len();
                for j in 0..pairs {
                    // The next pair: in this window, else the next one's first.
                    if j + 1 < pairs {
                        self.prefetch_pair(window.pair(j + 1, negative));
                    } else if !ahead.contexts.is_empty() {
                        self.prefetch_pair(ahead.pair(0, negative));
                    }
                    let (context, negatives) = window.pair(j, negative);
                    s.targets.clear();
                    s.targets.push(context);
                    s.targets
                        .extend(negatives.iter().filter(|&&n| n != context));
                    self.train_pair(center, lr, &mut s);
                }
            }
        }
    }

    /// Draws position `pos`'s window radius, then the negatives of all its
    /// pairs in pair order: the draws a pair-at-a-time loop makes.
    fn draw_window(&mut self, seq: &[u32], pos: usize, negative: usize, w: &mut Window) {
        let radius = self.rng.gen_range(1..=self.cfg.window.max(1));
        let lo = pos.saturating_sub(radius);
        let hi = (pos + radius + 1).min(seq.len());
        w.contexts.clear();
        w.contexts.extend_from_slice(&seq[lo..pos]);
        w.contexts.extend_from_slice(&seq[pos + 1..hi]);
        w.negatives.clear();
        if let Some(table) = self.neg_table {
            let draws = w.contexts.len() * negative;
            w.negatives
                .extend((0..draws).map(|_| table.sample(&mut self.rng) as u32));
        }
    }

    fn current_lr(&self, processed: usize) -> f64 {
        let frac = processed as f64 / self.total_positions as f64;
        (self.cfg.initial_lr * (1.0 - frac)).max(self.cfg.min_lr)
    }

    /// Hints the cache to load the output rows of a pair's targets.
    fn prefetch_pair(&self, (context, negatives): (u32, &[u32])) {
        let dim = self.params.dim;
        for &t in std::iter::once(&context).chain(negatives) {
            prefetch_row(SharedParams::row_ptr(&self.params.output, t, dim), dim);
        }
    }

    /// One positive pair plus its kept negatives, `s.targets` (context
    /// first).
    fn train_pair(&self, center: u32, lr: f64, s: &mut Scratch) {
        let dim = self.params.dim;
        let output = &self.params.output;
        // SAFETY: Hogwild — concurrent unsynchronized updates are accepted.
        // Within this thread the input row aliases nothing: it lives in the
        // other matrix.
        let w_in = unsafe { SharedParams::row_mut(&self.params.input, center, dim) };
        let targets = &s.targets;
        let distinct = targets
            .iter()
            .enumerate()
            .all(|(k, t)| !targets[..k].contains(t));
        if !distinct {
            // A later target must see an earlier target's update of the
            // shared row: train target by target.
            s.grad.clear();
            s.grad.resize(dim, 0.0);
            for (k, &target) in targets.iter().enumerate() {
                // SAFETY: the output row is in the other matrix, so it does
                // not alias `w_in`, and it is dropped before the next
                // target's row is taken.
                let w_out = unsafe { SharedParams::row_mut(output, target, dim) };
                let g = (label(k) - sigmoid(dot(w_in, w_out))) * lr;
                for ((ga, &wi), wo) in s.grad.iter_mut().zip(w_in.iter()).zip(w_out.iter_mut()) {
                    *ga += g * *wo;
                    *wo += g * wi;
                }
            }
            for (wi, &ga) in w_in.iter_mut().zip(&s.grad) {
                *wi += ga;
            }
            return;
        }

        s.rows.clear();
        s.rows.extend(
            targets
                .iter()
                .map(|&t| SharedParams::row_ptr(output, t, dim)),
        );
        s.scores.clear();
        s.scores.resize(targets.len(), 0.0);
        // SAFETY: `rows` point at full, distinct rows of the output matrix,
        // which `w_in` (an input row) does not overlap.
        unsafe { side_by_side_dots(w_in, &s.rows, &mut s.scores) };
        for (k, score) in s.scores.iter_mut().enumerate() {
            *score = (label(k) - sigmoid(*score)) * lr;
        }
        // SAFETY: as above; no reference into those rows is alive.
        unsafe { fused_update(w_in, &s.rows, &s.scores) };
    }
}

/// The update of a pair whose targets are distinct rows, in one sweep: for
/// every coordinate `i`, `ga += g_k·wo_k[i]; wo_k[i] += g_k·wi[i]` for each
/// target `k` in order, then `wi[i] += ga`. Coordinates go in blocks of four
/// whose lane-wise arithmetic the compiler vectorizes.
///
/// # Safety
///
/// Each of `rows` must point at `w_in.len()` writable scalars, the rows must
/// be pairwise disjoint and disjoint from `w_in`, and this thread must hold
/// no other reference into them.
unsafe fn fused_update(w_in: &mut [f64], rows: &[*mut f64], gs: &[f64]) {
    /// Updates coordinates `base..base + L`; `wi` holds those of the input
    /// row. Same contract as [`fused_update`].
    #[inline(always)]
    unsafe fn block<const L: usize>(wi: &mut [f64], base: usize, rows: &[*mut f64], gs: &[f64]) {
        let x: [f64; L] = std::array::from_fn(|l| wi[l]);
        let mut ga = [0.0f64; L];
        for (&row, &g) in rows.iter().zip(gs) {
            // SAFETY: by the contract each row holds at least `base + L`
            // scalars and overlaps nothing else, so this view is the only
            // live reference to them.
            let wo = unsafe { std::slice::from_raw_parts_mut(row.add(base), L) };
            for l in 0..L {
                let o = wo[l];
                ga[l] += g * o;
                wo[l] = o + g * x[l];
            }
        }
        for l in 0..L {
            wi[l] = x[l] + ga[l];
        }
    }
    let whole = w_in.len() - w_in.len() % 4;
    let (blocks, tail) = w_in.split_at_mut(whole);
    // SAFETY (both loops): the caller's contract, and every block ends
    // within `w_in.len()`.
    for (b, wi) in blocks.chunks_exact_mut(4).enumerate() {
        unsafe { block::<4>(wi, 4 * b, rows, gs) };
    }
    for (j, wi) in tail.chunks_exact_mut(1).enumerate() {
        unsafe { block::<1>(wi, whole + j, rows, gs) };
    }
}

/// Label of target `k` of a pair: the context (k = 0) is positive.
fn label(k: usize) -> f64 {
    if k == 0 {
        1.0
    } else {
        0.0
    }
}

/// `out[k] = dot(a, rows[k])`, up to eight dot products at a time in one
/// pass over `a`.
///
/// # Safety
///
/// Each of `rows` must point at `a.len()` scalars that nothing writes while
/// this runs.
unsafe fn side_by_side_dots(a: &[f64], rows: &[*mut f64], out: &mut [f64]) {
    fn group<const N: usize>(a: &[f64], rows: &[*mut f64], out: &mut [f64]) {
        // SAFETY: the caller's contract covers every pointer.
        let rows = std::array::from_fn(|k| unsafe { std::slice::from_raw_parts(rows[k], a.len()) });
        out.copy_from_slice(&dots::<N>(a, rows));
    }
    for (rows, out) in rows.chunks(8).zip(out.chunks_mut(8)) {
        match rows.len() {
            1 => group::<1>(a, rows, out),
            2 => group::<2>(a, rows, out),
            3 => group::<3>(a, rows, out),
            4 => group::<4>(a, rows, out),
            5 => group::<5>(a, rows, out),
            6 => group::<6>(a, rows, out),
            7 => group::<7>(a, rows, out),
            _ => group::<8>(a, rows, out),
        }
    }
}

/// `N` dot products of `a` with `rows`, side by side in one pass. Each sums
/// serially from `-0.0` like `leva_linalg::dot` (`Iterator::sum`), so each
/// equals `dot(a, rows[k])` bit for bit.
fn dots<const N: usize>(a: &[f64], rows: [&[f64]; N]) -> [f64; N] {
    // `from_fn` inlines where `rows.map` became an out-of-line `try_map`
    // call; re-slicing to `a.len()` still lets `r[i]` skip its bounds check.
    let rows: [&[f64]; N] = std::array::from_fn(|k| &rows[k][..a.len()]);
    let mut acc = [-0.0f64; N];
    for (i, &x) in a.iter().enumerate() {
        for (s, r) in acc.iter_mut().zip(&rows) {
            *s += x * r[i];
        }
    }
    acc
}

/// Hints the cache to load the `dim` scalars at `row`; a no-op off x86-64.
#[inline(always)]
fn prefetch_row(row: *const f64, dim: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = row.cast::<i8>();
        let offset = start as usize % 64;
        let first_line = start.wrapping_sub(offset);
        for line in (0..offset + dim * std::mem::size_of::<f64>()).step_by(64) {
            // SAFETY: a prefetch is only a hint and never faults.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first_line.wrapping_add(line)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (row, dim);
}

/// Numerically clamped logistic function.
fn sigmoid(x: f64) -> f64 {
    if x > 8.0 {
        1.0
    } else if x < -8.0 {
        0.0
    } else {
        1.0 / (1.0 + (-x).exp())
    }
}

fn chunk_sequences(sequences: &[Vec<u32>], n: usize) -> Vec<&[Vec<u32>]> {
    let n = n.max(1).min(sequences.len().max(1));
    let chunk = sequences.len().div_ceil(n);
    sequences.chunks(chunk.max(1)).collect()
}

/// Actual token count per chunk — the denominator of each Hogwild worker's
/// LR schedule.
fn chunk_token_counts(chunks: &[&[Vec<u32>]]) -> Vec<usize> {
    chunks
        .iter()
        .map(|c| c.iter().map(Vec::len).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use leva_linalg::cosine_similarity;

    /// Corpus where "a" and "b" always co-occur, "x" and "y" always
    /// co-occur, and the two groups never mix.
    fn clustered_corpus() -> Corpus {
        let mut sentences = Vec::new();
        for i in 0..200 {
            if i % 2 == 0 {
                sentences.push(vec!["a", "b", "a", "b", "a"]);
            } else {
                sentences.push(vec!["x", "y", "x", "y", "x"]);
            }
        }
        Corpus::from_sentences(sentences)
    }

    #[test]
    fn cooccurring_tokens_embed_closer() {
        let corpus = clustered_corpus();
        let cfg = SgnsConfig {
            dim: 16,
            epochs: 8,
            window: 2,
            ..Default::default()
        };
        let model = train_sgns(&corpus, &cfg);
        let a = model.input_row(0);
        let b = model.input_row(1);
        let x = model.input_row(2);
        let sim_ab = cosine_similarity(a, b);
        let sim_ax = cosine_similarity(a, x);
        assert!(
            sim_ab > sim_ax + 0.2,
            "within-cluster sim {sim_ab} should beat cross-cluster {sim_ax}"
        );
    }

    #[test]
    fn deterministic_single_thread() {
        let corpus = clustered_corpus();
        let cfg = SgnsConfig {
            dim: 8,
            epochs: 2,
            ..Default::default()
        };
        let m1 = train_sgns(&corpus, &cfg);
        let m2 = train_sgns(&corpus, &cfg);
        assert_eq!(m1.input, m2.input);
    }

    #[test]
    fn multithreaded_training_still_learns() {
        let corpus = clustered_corpus();
        let cfg = SgnsConfig {
            dim: 16,
            epochs: 8,
            window: 2,
            threads: 4,
            ..Default::default()
        };
        let model = train_sgns(&corpus, &cfg);
        let sim_ab = cosine_similarity(model.input_row(0), model.input_row(1));
        let sim_ax = cosine_similarity(model.input_row(0), model.input_row(2));
        assert!(sim_ab > sim_ax);
    }

    #[test]
    fn into_store_keys_by_vocab() {
        let corpus = clustered_corpus();
        let cfg = SgnsConfig {
            dim: 8,
            epochs: 1,
            ..Default::default()
        };
        let model = train_sgns(&corpus, &cfg);
        let store = model.clone().into_store(&corpus, 8);
        assert_eq!(store.len(), 4);
        assert!(store.contains("a"));
        assert!(store.contains("y"));
        assert_eq!(store.get("a").unwrap().len(), 8);
        // Each stored vector is the mean of the two trained rows.
        for id in 0..model.vocab_size() {
            let stored = store.get(corpus.token_str(id as u32)).unwrap();
            let (vin, vout) = (model.input_row(id), model.output_row(id));
            for i in 0..8 {
                assert_eq!(stored[i].to_bits(), ((vin[i] + vout[i]) * 0.5).to_bits());
            }
        }
    }

    #[test]
    fn empty_corpus_is_safe() {
        let corpus = Corpus::from_sentences(Vec::<Vec<&str>>::new());
        let model = train_sgns(
            &corpus,
            &SgnsConfig {
                dim: 4,
                ..Default::default()
            },
        );
        assert!(model.input.is_empty());
    }

    #[test]
    fn missing_negative_table_still_applies_positive_update() {
        // Regression: `train_pair` used to `return` when no alias table was
        // available, exiting *before* the input-gradient flush — positive
        // pairs accumulated a gradient and then dropped it on the floor.
        let cfg = SgnsConfig {
            dim: 4,
            negative: 5,
            window: 1,
            ..Default::default()
        };
        let shared = SharedParams {
            input: vec![0.1f64; 2 * 4],
            // Output must be nonzero: the input gradient is g * w_out, so a
            // zero context vector would mask the bug.
            output: vec![0.2f64; 2 * 4],
            dim: 4,
        };
        let before = shared.input.clone();
        let mut worker = Worker {
            params: &shared,
            cfg: &cfg,
            neg_table: None,
            rng: StdRng::seed_from_u64(1),
            processed_base: 0,
            total_positions: 10,
        };
        worker.run(&[vec![0, 1, 0, 1]]);
        assert_ne!(
            shared.input, before,
            "positive-pair input gradient must land even without negatives"
        );
        assert!(shared.input.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn hogwild_lr_schedule_uses_actual_chunk_tokens() {
        // Uneven sentence lengths: chunking by sentence count gives chunk 0
        // (one 100-token sentence) far more tokens than chunk 1 (one
        // 4-token sentence). Each worker's schedule must decay over its own
        // token count so every worker ends exactly at LR fraction 1.0.
        let sequences = vec![vec![0u32; 100], vec![1u32; 4]];
        let chunks = chunk_sequences(&sequences, 2);
        let counts = chunk_token_counts(&chunks);
        assert_eq!(counts, vec![100, 4]);
        let total = sequences.iter().map(Vec::len).sum::<usize>();
        let naive_per_thread = total / 2; // the old, wrong denominator
        assert_ne!(counts[0], naive_per_thread);
        let cfg = SgnsConfig {
            dim: 2,
            epochs: 3,
            initial_lr: 0.025,
            min_lr: 1e-4,
            ..Default::default()
        };
        let shared = SharedParams {
            input: vec![0.0; 2 * 2],
            output: vec![0.0; 2 * 2],
            dim: 2,
        };
        for &tokens in &counts {
            let total_positions = (tokens * cfg.epochs).max(1);
            let worker = Worker {
                params: &shared,
                cfg: &cfg,
                neg_table: None,
                rng: StdRng::seed_from_u64(0),
                processed_base: (cfg.epochs - 1) * tokens,
                total_positions,
            };
            // At its own final position every worker has decayed the full
            // schedule: fraction 1.0 ⇒ the floor LR, no early clamping and
            // no unfinished decay.
            let final_lr = worker.current_lr(worker.processed_base + tokens);
            assert_eq!(final_lr, cfg.min_lr, "tokens={tokens}");
            // Halfway through, the decay is still in progress.
            let mid = worker.current_lr(total_positions / 2);
            assert!(mid > cfg.min_lr && mid < cfg.initial_lr, "tokens={tokens}");
        }
    }

    /// The per-pair trainer the fast step replaced: each pair draws its
    /// negatives as it goes and trains one target at a time. Oracle for
    /// [`Worker::run`].
    fn reference_run(worker: &mut Worker<'_>, sequences: &[Vec<u32>]) {
        let dim = worker.params.dim;
        let mut processed = worker.processed_base;
        let mut grad = vec![0.0f64; dim];
        for seq in sequences {
            for (pos, &center) in seq.iter().enumerate() {
                let lr = worker.current_lr(processed);
                processed += 1;
                let radius = worker.rng.gen_range(1..=worker.cfg.window.max(1));
                let lo = pos.saturating_sub(radius);
                let hi = (pos + radius + 1).min(seq.len());
                for ctx_pos in lo..hi {
                    if ctx_pos != pos {
                        reference_pair(worker, center, seq[ctx_pos], lr, &mut grad);
                    }
                }
            }
        }
    }

    fn reference_pair(
        worker: &mut Worker<'_>,
        center: u32,
        context: u32,
        lr: f64,
        grad: &mut [f64],
    ) {
        let dim = worker.params.dim;
        grad.fill(0.0);
        // SAFETY: one thread; input and output rows are in separate
        // matrices, and each output row is dropped before the next is taken.
        let w_in = unsafe { SharedParams::row_mut(&worker.params.input, center, dim) };
        for k in 0..=worker.cfg.negative {
            let (target, label) = if k == 0 {
                (context, 1.0)
            } else {
                let neg = match worker.neg_table {
                    Some(t) => t.sample(&mut worker.rng) as u32,
                    None => break,
                };
                if neg == context {
                    continue;
                }
                (neg, 0.0)
            };
            // SAFETY: see `w_in` above.
            let w_out = unsafe { SharedParams::row_mut(&worker.params.output, target, dim) };
            let g = (label - sigmoid(dot(w_in, w_out))) * lr;
            for ((ga, &wi), wo) in grad.iter_mut().zip(w_in.iter()).zip(w_out.iter_mut()) {
                *ga += g * *wo;
                *wo += g * wi;
            }
        }
        for (wi, &ga) in w_in.iter_mut().zip(grad.iter()) {
            *wi += ga;
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Trains one seeded random corpus over random (nonzero) parameters with
    /// the fast step and with the reference, and requires identical bits.
    fn assert_matches_reference(
        vocab: usize,
        dim: usize,
        window: usize,
        negative: usize,
        with_table: bool,
    ) {
        let case = format!(
            "vocab {vocab} dim {dim} window {window} negative {negative} table {with_table}"
        );
        let mut rng = StdRng::seed_from_u64(
            (vocab * 1_000_000 + dim * 1000 + window * 100 + negative) as u64,
        );
        let sequences: Vec<Vec<u32>> = (0..6)
            .map(|_| {
                let len = rng.gen_range(1..14);
                (0..len).map(|_| rng.gen_range(0..vocab as u32)).collect()
            })
            .collect();
        // Skewed weights, so frequent rows also come up as repeated
        // negatives; a tiny vocabulary forces the duplicate-row fallback.
        let weights: Vec<f64> = (0..vocab).map(|i| 1.0 / (i + 1) as f64).collect();
        let table = AliasTable::new(&weights).filter(|_| with_table);
        let mut random = |n: usize| (0..n).map(|_| rng.gen_range(-0.6..0.6)).collect();
        let fast = SharedParams {
            input: random(vocab * dim),
            output: random(vocab * dim),
            dim,
        };
        let reference = SharedParams {
            input: fast.input.clone(),
            output: fast.output.clone(),
            dim,
        };
        let cfg = SgnsConfig {
            dim,
            window,
            negative,
            initial_lr: 0.5,
            ..Default::default()
        };
        let tokens = sequences.iter().map(Vec::len).sum::<usize>();
        let worker = |params| Worker {
            params,
            cfg: &cfg,
            neg_table: table.as_ref(),
            rng: StdRng::seed_from_u64(0x5eed),
            processed_base: 0,
            total_positions: 2 * tokens,
        };
        // Two epochs through one worker, so the RNG streams must also end
        // each epoch at the same point.
        let mut fast_worker = worker(&fast);
        let mut reference_worker = worker(&reference);
        for epoch in 0..2 {
            fast_worker.processed_base = epoch * tokens;
            reference_worker.processed_base = epoch * tokens;
            fast_worker.run(&sequences);
            reference_run(&mut reference_worker, &sequences);
        }
        assert!(
            bits(&fast.input) == bits(&reference.input),
            "input diverged: {case}"
        );
        assert!(
            bits(&fast.output) == bits(&reference.output),
            "output diverged: {case}"
        );
    }

    fn assert_grid_matches_reference() {
        for dim in [1, 7, 32, 33] {
            for window in [1, 5] {
                for negative in [0, 1, 5, 15] {
                    for vocab in [3, 40] {
                        assert_matches_reference(vocab, dim, window, negative, true);
                    }
                }
                assert_matches_reference(40, dim, window, 5, false);
            }
        }
    }

    #[test]
    fn fast_step_matches_reference_trainer_f64() {
        assert_grid_matches_reference();
    }

    /// Each side-by-side dot equals `dot` bit for bit, for every group
    /// size and for lengths up to a few blocks of four.
    #[test]
    fn side_by_side_dots_match_dot() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [0, 1, 3, 4, 5, 8, 9, 33] {
            for n in 1..=17 {
                let a: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let mut rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
                    .collect();
                // An all -0.0 row against a positive `a` sums -0.0s.
                rows[0].iter_mut().for_each(|v| *v = -0.0);
                let ptrs: Vec<*mut f64> = rows.iter_mut().map(|r| r.as_mut_ptr()).collect();
                let mut out = vec![f64::NAN; n];
                // SAFETY: the pointers address the live rows, each of
                // `len` scalars, and nothing writes them meanwhile.
                unsafe { side_by_side_dots(&a, &ptrs, &mut out) };
                for (k, row) in rows.iter().enumerate() {
                    assert_eq!(
                        out[k].to_bits(),
                        dot(&a, row).to_bits(),
                        "len {len} n {n} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn vectors_stay_finite() {
        let corpus = clustered_corpus();
        let cfg = SgnsConfig {
            dim: 8,
            epochs: 10,
            initial_lr: 0.05,
            ..Default::default()
        };
        let model = train_sgns(&corpus, &cfg);
        assert!(model.input.iter().all(|x| x.is_finite()));
    }
}
