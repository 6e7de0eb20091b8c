//! Spectral propagation enhancement (ProNE-style, Zhang et al. IJCAI'19).
//!
//! Given a base embedding `E` (e.g. from the randomized SVD factorization)
//! and the graph adjacency `A`, the enhancement propagates `E` through a
//! Chebyshev-Gaussian band-pass filter of the normalized graph Laplacian,
//! which injects higher-order neighbourhood structure into the otherwise
//! first-order factorization. The paper's MF embedding path cites this as
//! its enhancement step (§4.2.1, [41]).

use crate::dense::Matrix;
use crate::parallel::for_each_row_band_pair;
use crate::sparse::CsrMatrix;

/// Band-pass centre μ of the modulated Gaussian kernel, as in the ProNE
/// reference implementation.
const MU: f64 = 0.2;
/// Kernel bandwidth θ, as in the ProNE reference implementation.
const THETA: f64 = 0.5;

/// Parameters of the Chebyshev-Gaussian filter (`μ = 0.2` and `θ = 0.5` are
/// fixed). The default order, 10, follows the ProNE reference implementation.
#[derive(Debug, Clone, Copy)]
pub struct ProneOptions {
    /// Chebyshev expansion order (number of propagation hops captured).
    pub order: usize,
    /// Worker threads for the propagation products (`0` = available
    /// parallelism). Results are bitwise identical at any thread count.
    pub threads: usize,
}

impl Default for ProneOptions {
    fn default() -> Self {
        Self {
            order: 10,
            threads: 1,
        }
    }
}

/// Applies spectral propagation to the rows of `embedding` using the graph
/// `adjacency` (square, typically symmetric). Returns the enhanced embedding
/// of identical shape.
///
/// Each Chebyshev hop is one row-banded pass: a row of `P·T_{k−1}`, then
/// that row of `T_k`, written over `T_{k−2}`, and of the running sum. The
/// recurrence lives in three `n × d` buffers allocated once, and the final
/// hop writes into one of them.
pub fn spectral_propagate(adjacency: &CsrMatrix, embedding: &Matrix, opts: ProneOptions) -> Matrix {
    let n = adjacency.n_rows();
    assert_eq!(adjacency.n_cols(), n, "adjacency must be square");
    assert_eq!(embedding.rows(), n, "embedding/adjacency size mismatch");
    if opts.order < 2 || n == 0 {
        return embedding.clone();
    }
    // Random-walk normalized adjacency with self loops: P = D⁻¹ (A + I).
    let p = rw_normalized_with_self_loops(adjacency);
    // Chebyshev recurrence on M = L − μI = (I − P) − μI, with
    // modified-Bessel coefficients:
    //   conv = Σ_k (-1)^k c_k T_k(M) E,  c_0 = I_0(θ), c_k = 2 I_k(θ).
    let d = embedding.cols();
    let mut older = embedding.clone(); // T_{k−2}, overwritten by T_k
    let mut prev = Matrix::zeros(n, d); // T_{k−1}
    let mut conv = Matrix::zeros(n, d);
    chebyshev_hop(
        &p,
        &older,
        &mut prev,
        &mut conv,
        Hop::First {
            c0: bessel_i(0, THETA),
            alpha: -2.0 * bessel_i(1, THETA),
        },
        opts,
    );
    for k in 2..=opts.order {
        let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
        let alpha = sign * 2.0 * bessel_i(k as u32, THETA);
        let hop = if k == opts.order {
            Hop::Last { alpha, embedding }
        } else {
            Hop::Next { alpha }
        };
        chebyshev_hop(&p, &prev, &mut older, &mut conv, hop, opts);
        std::mem::swap(&mut prev, &mut older);
    }
    // Final smoothing hop: E' = P (E + conv); the last hop left E + conv
    // in `conv`.
    p.spmm_dense_into(&conv, &mut prev, opts.threads);
    prev
}

/// What a [`chebyshev_hop`] writes, beyond `T_k` itself.
enum Hop<'a> {
    /// `T_1 = M·E` and `conv = c_0·E + α·T_1`.
    First { c0: f64, alpha: f64 },
    /// `T_k = 2·M·T_{k−1} − T_{k−2}` and `conv += α·T_k`.
    Next { alpha: f64 },
    /// As `Next`, then `conv += E` (bitwise `E + conv`: addition commutes),
    /// the input of the final hop.
    Last { alpha: f64, embedding: &'a Matrix },
}

/// One hop of the recurrence in one row-banded pass over `t` and `conv`:
/// `x` is `T_{k−1}` and `t` holds `T_{k−2}` (nothing on the first hop) and
/// receives `T_k`. Every element takes the float operations of the
/// unfused form in its order: the `P·x` row summed from `0.0` in entry
/// order, `(1−μ)·x − px`, `×2`, `− T_{k−2}`, then `conv += α·T_k`.
fn chebyshev_hop(
    p: &CsrMatrix,
    x: &Matrix,
    t: &mut Matrix,
    conv: &mut Matrix,
    hop: Hop<'_>,
    opts: ProneOptions,
) {
    let d = x.cols();
    let keep = 1.0 - MU;
    for_each_row_band_pair(
        t.data_mut(),
        conv.data_mut(),
        d,
        opts.threads,
        |rows, t_band, conv_band| {
            let mut px = vec![0.0; d];
            for (offset, r) in rows.enumerate() {
                p.spmm_row(r, x, &mut px);
                let span = offset * d..(offset + 1) * d;
                let t_row = &mut t_band[span.clone()];
                let conv_row = &mut conv_band[span];
                let m = x.row(r).iter().zip(&px).map(|(&xv, &pv)| keep * xv - pv);
                match hop {
                    Hop::First { c0, alpha } => {
                        for (((t, c), m), &xv) in
                            t_row.iter_mut().zip(conv_row).zip(m).zip(x.row(r))
                        {
                            *t = m;
                            *c = xv * c0 + alpha * m;
                        }
                    }
                    Hop::Next { alpha } => {
                        for ((t, c), m) in t_row.iter_mut().zip(conv_row).zip(m) {
                            *t = m * 2.0 - *t;
                            *c += alpha * *t;
                        }
                    }
                    Hop::Last { alpha, embedding } => {
                        let e_row = embedding.row(r);
                        for (((t, c), m), &e) in t_row.iter_mut().zip(conv_row).zip(m).zip(e_row) {
                            *t = m * 2.0 - *t;
                            *c += alpha * *t;
                            *c += e;
                        }
                    }
                }
            }
        },
    );
}

/// D⁻¹(A + I) as a CSR matrix, built row by row from `a`'s sorted rows.
/// A self-loop merges with the added diagonal into one entry, the sum of
/// the two terms (as [`CsrMatrix::from_triplets`] merges duplicates).
fn rw_normalized_with_self_loops(a: &CsrMatrix) -> CsrMatrix {
    let n = a.n_rows();
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::with_capacity(a.nnz() + n);
    let mut data = Vec::with_capacity(a.nnz() + n);
    indptr.push(0);
    for r in 0..n {
        let degree: f64 = a.row_sum(r) + 1.0;
        let mut diagonal = Some(1.0 / degree);
        for (c, v) in a.row(r) {
            let mut v = v / degree;
            if c >= r {
                if let Some(dg) = diagonal.take() {
                    if c == r {
                        v += dg;
                    } else {
                        indices.push(r as u32);
                        data.push(dg);
                    }
                }
            }
            indices.push(c as u32);
            data.push(v);
        }
        if let Some(dg) = diagonal {
            indices.push(r as u32);
            data.push(dg);
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_parts(n, n, indptr, indices, data)
}

/// Modified Bessel function of the first kind, I_k(x), via its power series.
/// Converges rapidly for the small bandwidths used here (x ≤ ~20).
pub fn bessel_i(k: u32, x: f64) -> f64 {
    let half = x / 2.0;
    let mut term = half.powi(k as i32);
    // term_0 = (x/2)^k / k!
    for i in 1..=k {
        term /= f64::from(i);
    }
    let mut sum = term;
    let mut m = 1.0;
    loop {
        term *= half * half / (m * (m + f64::from(k)));
        sum += term;
        if term < sum.abs() * 1e-15 + 1e-300 {
            break;
        }
        m += 1.0;
        if m > 200.0 {
            break;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::band_workers;

    /// The unfused propagation, kept as the oracle of the fused hops: each
    /// hop allocates `P·x` and makes its passes one after another.
    fn spectral_propagate_unfused(
        adjacency: &CsrMatrix,
        embedding: &Matrix,
        opts: ProneOptions,
    ) -> Matrix {
        if opts.order < 2 || adjacency.n_rows() == 0 {
            return embedding.clone();
        }
        let p = rw_normalized_by_triplets(adjacency);
        let apply_m = |x: &Matrix| -> Matrix {
            let mut px = p.spmm_dense_threads(x, opts.threads);
            for (o, &v) in px.data_mut().iter_mut().zip(x.data()) {
                *o = (1.0 - MU) * v - *o;
            }
            px
        };
        let mut lx0 = embedding.clone();
        let mut lx1 = apply_m(&lx0);
        let mut conv = lx0.clone();
        conv.scale(bessel_i(0, THETA));
        add_scaled(&mut conv, &lx1, -2.0 * bessel_i(1, THETA));
        for k in 2..=opts.order {
            let mut lx2 = apply_m(&lx1);
            lx2.scale(2.0);
            for (t, &o) in lx2.data_mut().iter_mut().zip(lx0.data()) {
                *t -= o;
            }
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            add_scaled(&mut conv, &lx2, sign * 2.0 * bessel_i(k as u32, THETA));
            lx0 = lx1;
            lx1 = lx2;
        }
        let mut combined = embedding.clone();
        add_scaled(&mut combined, &conv, 1.0);
        p.spmm_dense_threads(&combined, opts.threads)
    }

    fn add_scaled(target: &mut Matrix, other: &Matrix, alpha: f64) {
        for (t, &o) in target.data_mut().iter_mut().zip(other.data()) {
            *t += alpha * o;
        }
    }

    /// The triplet-and-sort build of D⁻¹(A + I), the oracle of the
    /// row-by-row one.
    fn rw_normalized_by_triplets(a: &CsrMatrix) -> CsrMatrix {
        let n = a.n_rows();
        let mut triplets = Vec::with_capacity(a.nnz() + n);
        for r in 0..n {
            let degree: f64 = a.row_sum(r) + 1.0;
            triplets.push((r as u32, r as u32, 1.0 / degree));
            for (c, v) in a.row(r) {
                triplets.push((r as u32, c as u32, v / degree));
            }
        }
        CsrMatrix::from_triplets(n, n, triplets)
    }

    /// A weighted symmetric graph on `n` nodes with self-loops on every
    /// 17th node and no edges at all at every 11th node or in the last 50.
    fn graph_with_loops_and_isolated_nodes(n: usize) -> CsrMatrix {
        let isolated = |v: usize| v.is_multiple_of(11) || v >= n - 50;
        let mut state = 7u64;
        let mut t = Vec::new();
        for _ in 0..4 * n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 33) as usize % n;
            let v = (state >> 13) as usize % n;
            let w = ((state >> 3) % 97) as f64 / 9.0 + 0.25;
            if u != v && !isolated(u) && !isolated(v) {
                t.push((u as u32, v as u32, w));
                t.push((v as u32, u as u32, w));
            }
        }
        for u in (0..n).step_by(17).filter(|&u| !isolated(u)) {
            t.push((u as u32, u as u32, 1.5));
        }
        CsrMatrix::from_triplets(n, n, t)
    }

    fn embedding_of(n: usize, d: usize) -> Matrix {
        Matrix::from_vec(
            n,
            d,
            (0..n * d)
                .map(|i| ((i as u64 * 2654435761) % 1009) as f64 / 97.0 - 5.0)
                .collect(),
        )
    }

    #[test]
    fn row_built_normalization_matches_the_triplet_build() {
        let g = graph_with_loops_and_isolated_nodes(400);
        assert!((0..400).any(|r| g.row(r).any(|(c, _)| c == r)));
        assert_eq!(g.row(0).count(), 0);
        let fast = rw_normalized_with_self_loops(&g);
        assert_eq!(fast, rw_normalized_by_triplets(&g));
        let empty = CsrMatrix::from_triplets(0, 0, Vec::new());
        assert_eq!(
            rw_normalized_with_self_loops(&empty),
            rw_normalized_by_triplets(&empty)
        );
    }

    #[test]
    fn fused_hops_match_the_unfused_propagation() {
        let (n, d) = (1500, 24);
        let g = graph_with_loops_and_isolated_nodes(n);
        let e = embedding_of(n, d);
        for order in [1, 2, 3, 10] {
            let base = ProneOptions { order, threads: 1 };
            let want = spectral_propagate_unfused(&g, &e, base);
            for threads in [1, 2, 8] {
                assert_eq!(band_workers(n * d, d, threads), threads);
                let got = spectral_propagate(&g, &e, ProneOptions { threads, ..base });
                assert_eq!(got.data(), want.data(), "order={order} threads={threads}");
            }
        }
    }

    fn path_graph(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n - 1 {
            t.push((i as u32, (i + 1) as u32, 1.0));
            t.push(((i + 1) as u32, i as u32, 1.0));
        }
        CsrMatrix::from_triplets(n, n, t)
    }

    #[test]
    fn bessel_known_values() {
        // I_0(1) ≈ 1.2660658, I_1(1) ≈ 0.5651591
        assert!((bessel_i(0, 1.0) - 1.2660658).abs() < 1e-6);
        assert!((bessel_i(1, 1.0) - 0.5651591).abs() < 1e-6);
        assert!((bessel_i(0, 0.0) - 1.0).abs() < 1e-15);
        assert_eq!(bessel_i(3, 0.0), 0.0);
    }

    #[test]
    fn propagation_preserves_shape() {
        let g = path_graph(6);
        let e = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[0.5, 0.5],
            &[-1.0, 0.0],
            &[0.0, -1.0],
        ]);
        let out = spectral_propagate(&g, &e, ProneOptions::default());
        assert_eq!(out.rows(), 6);
        assert_eq!(out.cols(), 2);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn propagation_smooths_neighbours() {
        // On a path graph, propagation pulls adjacent node embeddings closer.
        let g = path_graph(4);
        let e = Matrix::from_rows(&[&[1.0], &[-1.0], &[1.0], &[-1.0]]);
        let out = spectral_propagate(
            &g,
            &e,
            ProneOptions {
                order: 4,
                threads: 1,
            },
        );
        let gap_before = (e[(0, 0)] - e[(1, 0)]).abs();
        let gap_after = (out[(0, 0)] - out[(1, 0)]).abs();
        assert!(gap_after < gap_before, "{gap_after} vs {gap_before}");
    }

    #[test]
    fn low_order_is_identity() {
        let g = path_graph(3);
        let e = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let out = spectral_propagate(
            &g,
            &e,
            ProneOptions {
                order: 1,
                threads: 1,
            },
        );
        assert_eq!(out, e);
    }
}
