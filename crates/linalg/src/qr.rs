//! Thin QR decomposition via Householder reflections.
//!
//! Used by the randomized range finder: given a tall sample matrix `Y`
//! (n × k, k ≪ n), `thin_q(Y)` returns an orthonormal basis `Q` of `Y`'s
//! column space such that `Y ≈ Q R`.

use crate::dense::Matrix;

/// Columns per panel. 16 dot accumulators fit in the vector registers of
/// both arms (32 do not: measured twice as slow).
const PANEL: usize = 16;
/// Columns per panel of blocks too tall for a `PANEL`-wide panel to fit
/// [`PANEL_BYTES`], and the padded width of a ragged last panel of at most
/// this many columns.
const HALF: usize = PANEL / 2;
/// The largest panel, in bytes, that stays in a 2 MiB L2 beside the
/// Householder vector swept with it. A 5.8k-row block gets 16-column panels
/// (0.7 MiB); a 24k-row one 8-column panels (1.5 MiB, where 16 columns
/// spilled to L3 and ran ≈20% slower).
const PANEL_BYTES: usize = 1 << 20;

/// Computes the thin `Q` factor (n × k) of an n × k matrix with n ≥ k.
///
/// Columns of the result are orthonormal. Rank-deficient inputs still return
/// an orthonormal matrix (deficient directions are filled with arbitrary
/// orthonormal vectors produced by the reflections).
///
/// Left-looking and panelled: the input is copied out 16 columns at a time
/// (8 for blocks of more than 8192 rows), every earlier reflection is
/// applied to the panel, and then the panel's own columns are factored. Q
/// is formed one panel at a time the same way. Each column receives
/// exactly the float operations of the column-at-a-time kernel, in the
/// same order, so Q is bitwise that kernel's. On x86-64 CPUs with AVX2 the
/// same code runs compiled for AVX2 (without FMA, which would fuse the
/// roundings); the bits do not change.
///
/// Runs on one thread: sharding rows into bands would regroup each
/// column's reduction and change the bits of the result.
pub fn thin_q(a: &Matrix) -> Matrix {
    assert!(
        a.rows() >= a.cols(),
        "thin_q requires a tall matrix (n >= k)"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2::available() {
        // SAFETY: `available` confirmed AVX2 on this CPU, the one feature
        // the arm is compiled for.
        return unsafe { avx2::thin_q(a) };
    }
    thin_q_panels(a)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::dense::Matrix;

    /// Whether this CPU has AVX2. `is_x86_feature_detected!` caches its
    /// probe, so this is a bit test after the first call.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx2")
    }

    /// [`super::thin_q_panels`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// Calling it is `unsafe` outside code compiled for AVX2: the caller
    /// must first confirm it with [`available`].
    #[target_feature(enable = "avx2")]
    pub(super) fn thin_q(a: &Matrix) -> Matrix {
        super::thin_q_panels(a)
    }
}

/// The body of [`thin_q`]; inlined into each arm so the kernels below are
/// compiled for that arm's instruction set.
#[inline(always)]
fn thin_q_panels(a: &Matrix) -> Matrix {
    let n = a.rows();
    let k = a.cols();
    let width = if n * PANEL * size_of::<f64>() <= PANEL_BYTES {
        PANEL
    } else {
        HALF
    };
    let mut panel: Vec<f64> = Vec::with_capacity(n * panel_width(k, width).1);
    // Householder vectors; v_j has support on rows j..n, `None` marks an
    // identity reflection (zero column).
    let mut vs: Vec<Option<Vec<f64>>> = Vec::with_capacity(k);
    for p0 in (0..k).step_by(width) {
        let (w, pw) = panel_width(k - p0, width);
        panel.clear();
        for row in a.data().chunks_exact(k) {
            panel.extend_from_slice(&row[p0..p0 + w]);
            panel.extend_from_slice(&[0.0; PANEL][w..pw]);
        }
        reflect_chain(&mut panel, pw, present(&vs, 0..p0));
        for c in 0..w {
            let j = p0 + c;
            let v = householder(&panel, pw, j, c);
            // Columns j and left of it are not read again (only Q is
            // returned), so it is harmless that the reflection updates
            // them too.
            if let Some(v) = &v {
                reflect_chain(&mut panel, pw, std::iter::once((j, v.as_slice())));
            }
            vs.push(v);
        }
    }
    // Q = H_0 H_1 ... H_{k-1} applied to the first k columns of I, one
    // panel of columns at a time. Panel columns end before p0 + w, and
    // reflections from there on leave them +0.0 (|v| ≤ 1 is finite), so
    // each panel's chain starts at H_{p0+w-1}.
    let mut q = Matrix::zeros(n, k);
    for p0 in (0..k).step_by(width) {
        let (w, pw) = panel_width(k - p0, width);
        panel.clear();
        panel.resize(n * pw, 0.0);
        for c in 0..w {
            panel[(p0 + c) * pw + c] = 1.0;
        }
        reflect_chain(&mut panel, pw, present(&vs, 0..p0 + w).rev());
        for (q_row, p_row) in q.data_mut().chunks_exact_mut(k).zip(panel.chunks_exact(pw)) {
            q_row[p0..p0 + w].copy_from_slice(&p_row[..w]);
        }
    }
    q
}

/// The non-identity reflections among `vs[range]`, with their indices.
fn present(
    vs: &[Option<Vec<f64>>],
    range: std::ops::Range<usize>,
) -> impl DoubleEndedIterator<Item = (usize, &[f64])> {
    let start = range.start;
    vs[range]
        .iter()
        .enumerate()
        .filter_map(move |(i, v)| Some((start + i, v.as_deref()?)))
}

/// The real and the padded width of a `width`-column panel that starts
/// `left` columns before the last. A ragged last panel is padded with zero
/// columns to `HALF` or `PANEL`, so the fixed-width kernels take it too:
/// columns never mix, a zero column reflects to zeros, and the padding is
/// dropped.
fn panel_width(left: usize, width: usize) -> (usize, usize) {
    let w = width.min(left);
    (w, if w <= HALF { HALF } else { PANEL })
}

/// The unit Householder vector that zeroes column `c` of a `w`-wide
/// row-major panel below row `j`, or `None` for an identity reflection.
fn householder(panel: &[f64], w: usize, j: usize, c: usize) -> Option<Vec<f64>> {
    let mut v: Vec<f64> = panel[j * w + c..].iter().step_by(w).copied().collect();
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm < 1e-300 {
        return None;
    }
    let alpha = if v[0] >= 0.0 { -norm } else { norm };
    v[0] -= alpha;
    let vnorm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if vnorm < 1e-300 {
        return None;
    }
    for x in &mut v {
        *x /= vnorm;
    }
    Some(v)
}

/// Applies a chain of reflections `(j, v)`, in order, to every column of a
/// `w`-wide panel (`w` is `PANEL` or `HALF`).
#[inline(always)]
fn reflect_chain<'a>(panel: &mut [f64], w: usize, chain: impl Iterator<Item = (usize, &'a [f64])>) {
    match w {
        PANEL => reflect_chain_panel::<PANEL>(panel, chain),
        HALF => reflect_chain_panel::<HALF>(panel, chain),
        _ => unreachable!("panels are padded to PANEL or HALF columns"),
    }
}

/// [`reflect_chain`] on `W`-wide rows. One sweep over the rows applies a
/// reflection's update and accumulates the next one's dot products from
/// the rows it has just updated, so each reflection costs one pass over
/// the panel instead of two. A column's dot for reflection `t + 1` still
/// sums, in ascending row order from 0.0, the products of values that
/// reflection `t` has finished updating, so every column gets the float
/// operations of a dot pass and then an update pass, one reflection after
/// the other.
#[inline(always)]
fn reflect_chain_panel<'a, const W: usize>(
    panel: &mut [f64],
    chain: impl Iterator<Item = (usize, &'a [f64])>,
) {
    let (rows, _) = panel.as_chunks_mut::<W>();
    // The reflection whose dots are complete but whose update is pending.
    let mut pending: Option<(usize, &[f64], [f64; W])> = None;
    for (j, v) in chain {
        let mut dots = [0.0; W];
        match pending {
            None => {
                for (row, &vi) in rows[j..].iter().zip(v) {
                    accumulate(&mut dots, row, vi);
                }
            }
            // Rows jp..j are updated only, rows j..n updated then read.
            Some((jp, vp, dp)) if jp <= j => {
                let (head, tail) = rows[jp..].split_at_mut(j - jp);
                for (row, &vpi) in head.iter_mut().zip(vp) {
                    update(row, &dp, vpi);
                }
                for ((row, &vpi), &vi) in tail.iter_mut().zip(&vp[j - jp..]).zip(v) {
                    update(row, &dp, vpi);
                    accumulate(&mut dots, row, vi);
                }
            }
            // Rows j..jp are read only, rows jp..n updated then read.
            Some((jp, vp, dp)) => {
                let (head, tail) = rows[j..].split_at_mut(jp - j);
                for (row, &vi) in head.iter().zip(v) {
                    accumulate(&mut dots, row, vi);
                }
                for ((row, &vpi), &vi) in tail.iter_mut().zip(vp).zip(&v[jp - j..]) {
                    update(row, &dp, vpi);
                    accumulate(&mut dots, row, vi);
                }
            }
        }
        double(&mut dots);
        pending = Some((j, v, dots));
    }
    if let Some((jp, vp, dp)) = pending {
        for (row, &vpi) in rows[jp..].iter_mut().zip(vp) {
            update(row, &dp, vpi);
        }
    }
}

/// `dots[c] += vi · row[c]` for every column: one row of a reflection's
/// dot products.
#[inline(always)]
fn accumulate<const W: usize>(dots: &mut [f64; W], row: &[f64; W], vi: f64) {
    for c in 0..W {
        dots[c] += vi * row[c];
    }
}

/// Turns finished dot products into the update's factors, `2 · dot`.
#[inline(always)]
fn double<const W: usize>(dots: &mut [f64; W]) {
    for dot in dots {
        *dot *= 2.0;
    }
}

/// `row[c] -= dots2[c] · vi` for every column: one row of a reflection's
/// update, with the doubled dots.
#[inline(always)]
fn update<const W: usize>(row: &mut [f64; W], dots2: &[f64; W], vi: f64) {
    for c in 0..W {
        row[c] -= dots2[c] * vi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The column-at-a-time kernel `thin_q` replaced, kept as its bitwise
    /// oracle.
    fn thin_q_reference(a: &Matrix) -> Matrix {
        let n = a.rows();
        let k = a.cols();
        assert!(n >= k, "thin_q requires a tall matrix (n >= k)");
        let mut r = a.clone();
        // Store the Householder vectors; v_j has support on rows j..n.
        let mut vs: Vec<Vec<f64>> = Vec::with_capacity(k);
        for j in 0..k {
            // Build the Householder vector for column j below the diagonal.
            let mut v = vec![0.0; n - j];
            for i in j..n {
                v[i - j] = r[(i, j)];
            }
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-300 {
                // Zero column: identity reflection.
                vs.push(vec![0.0; n - j]);
                continue;
            }
            let alpha = if v[0] >= 0.0 { -norm } else { norm };
            v[0] -= alpha;
            let vnorm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if vnorm < 1e-300 {
                vs.push(vec![0.0; n - j]);
                continue;
            }
            for x in &mut v {
                *x /= vnorm;
            }
            // Apply the reflection H = I - 2 v vᵀ to the trailing block of R.
            for col in j..k {
                let mut dot = 0.0;
                for i in j..n {
                    dot += v[i - j] * r[(i, col)];
                }
                let dot2 = 2.0 * dot;
                for i in j..n {
                    r[(i, col)] -= dot2 * v[i - j];
                }
            }
            vs.push(v);
        }
        // Q = H_0 H_1 ... H_{k-1} applied to the first k columns of I.
        let mut q = Matrix::zeros(n, k);
        for j in 0..k {
            q[(j, j)] = 1.0;
        }
        for (j, v) in vs.iter().enumerate().rev() {
            if v.iter().all(|&x| x == 0.0) {
                continue;
            }
            for col in 0..k {
                let mut dot = 0.0;
                for i in j..n {
                    dot += v[i - j] * q[(i, col)];
                }
                let dot2 = 2.0 * dot;
                for i in j..n {
                    q[(i, col)] -= dot2 * v[i - j];
                }
            }
        }
        q
    }

    fn random_matrix(rng: &mut StdRng, n: usize, k: usize) -> Matrix {
        let data = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Matrix::from_vec(n, k, data)
    }

    type Arm = (&'static str, fn(&Matrix) -> Matrix);

    /// Every arm of [`thin_q`] on this CPU, called directly so that a
    /// regression in one cannot hide behind the dispatch.
    fn arms() -> Vec<Arm> {
        #[allow(unused_mut)]
        let mut arms: Vec<Arm> = vec![("scalar", thin_q_panels)];
        #[cfg(target_arch = "x86_64")]
        if avx2::available() {
            arms.push(("avx2", |a| {
                // SAFETY: the arm is listed only when `available` confirmed
                // AVX2 on this CPU.
                unsafe { avx2::thin_q(a) }
            }));
        }
        arms
    }

    fn assert_matches_reference(a: &Matrix, case: &str) {
        let want = thin_q_reference(a);
        for (arm, kernel) in arms() {
            let got = kernel(a);
            assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
            for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{case} ({arm}): entry {i} is {x:e}, reference {y:e}"
                );
            }
        }
    }

    #[test]
    fn matches_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x9e37);
        // Widths around the panel sizes, square and tall, and the `fit_mf`
        // and `serve_*` block widths.
        for k in [1, 7, 8, 9, 15, 16, 17, 38, 134] {
            for n in [k, k + 1, 3 * k + 5] {
                assert_matches_reference(&random_matrix(&mut rng, n, k), &format!("{n}x{k}"));
            }
        }
        // The `fit_mf` width at a height that takes 8-column panels.
        for (n, k) in [(500, 38), (300, 134), (8_300, 38)] {
            assert_matches_reference(&random_matrix(&mut rng, n, k), &format!("{n}x{k}"));
        }
        for x in [0.0, -0.0, 2.5, -2.5] {
            assert_matches_reference(&Matrix::from_vec(1, 1, vec![x]), &format!("1x1 [{x}]"));
        }
        assert_matches_reference(&Matrix::identity(5), "identity");
        assert_matches_reference(&Matrix::identity(40), "identity 40");
        assert_matches_reference(&Matrix::zeros(6, 3), "zero matrix");
        assert_matches_reference(&Matrix::zeros(40, 20), "zero matrix 40x20");

        // Zero columns first, in the middle and last, in one panel and
        // across panels.
        let mut a = random_matrix(&mut rng, 60, 8);
        for i in 0..60 {
            for col in [0, 3, 7] {
                a[(i, col)] = 0.0;
            }
        }
        assert_matches_reference(&a, "zero columns");
        let mut a = random_matrix(&mut rng, 90, 38);
        for i in 0..90 {
            for col in [0, 15, 16, 17, 31, 32, 37] {
                a[(i, col)] = 0.0;
            }
        }
        assert_matches_reference(&a, "zero columns across panels");

        // Duplicated and scaled columns make the input rank-deficient.
        let mut a = random_matrix(&mut rng, 80, 10);
        for i in 0..80 {
            a[(i, 5)] = a[(i, 2)];
            a[(i, 7)] = a[(i, 2)];
            a[(i, 8)] = 2.0 * a[(i, 1)];
        }
        assert_matches_reference(&a, "duplicated columns");
        let mut a = random_matrix(&mut rng, 120, 40);
        for i in 0..120 {
            a[(i, 16)] = a[(i, 2)];
            a[(i, 33)] = a[(i, 2)];
            a[(i, 39)] = -3.0 * a[(i, 20)];
        }
        assert_matches_reference(&a, "duplicated columns across panels");

        // Entries of magnitude 1e-150 and 1e150 side by side.
        let mut a = random_matrix(&mut rng, 120, 12);
        for x in a.data_mut() {
            *x *= if rng.gen_bool(0.5) { 1e150 } else { 1e-150 };
        }
        assert_matches_reference(&a, "mixed magnitudes");

        // Negative zeros: scattered, on the diagonal and as a whole column.
        let mut a = random_matrix(&mut rng, 40, 6);
        for i in 0..40 {
            a[(i, 4)] = -0.0;
            if rng.gen_bool(0.3) {
                a[(i, 1)] = -0.0;
            }
        }
        a[(0, 0)] = -0.0;
        a[(2, 2)] = -0.0;
        assert_matches_reference(&a, "negative zeros");
        let mut a = random_matrix(&mut rng, 70, 34);
        for i in 0..70 {
            a[(i, 18)] = -0.0;
            if rng.gen_bool(0.3) {
                a[(i, 30)] = -0.0;
            }
        }
        a[(16, 16)] = -0.0;
        a[(33, 33)] = -0.0;
        assert_matches_reference(&a, "negative zeros across panels");
    }

    fn orthonormality_error(q: &Matrix) -> f64 {
        let qtq = q.transpose().matmul(q);
        qtq.max_abs_diff(&Matrix::identity(q.cols()))
    }

    #[test]
    fn q_is_orthonormal() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 9.0]]);
        let q = thin_q(&a);
        assert_eq!(q.rows(), 4);
        assert_eq!(q.cols(), 2);
        assert!(orthonormality_error(&q) < 1e-10);
    }

    #[test]
    fn q_spans_column_space() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let q = thin_q(&a);
        // Projecting A onto span(Q) must reproduce A: Q Qᵀ A = A.
        let proj = q.matmul(&q.transpose().matmul(&a));
        assert!(proj.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn handles_rank_deficiency() {
        // Second column is a multiple of the first.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let q = thin_q(&a);
        assert!(orthonormality_error(&q) < 1e-10);
    }

    #[test]
    fn handles_zero_matrix() {
        let a = Matrix::zeros(5, 2);
        let q = thin_q(&a);
        assert_eq!(q.rows(), 5);
        assert_eq!(q.cols(), 2);
        // Identity reflections leave the seeded identity columns in place.
        assert!(orthonormality_error(&q) < 1e-10);
    }

    #[test]
    fn square_orthonormal_input_is_preserved_up_to_sign() {
        let a = Matrix::identity(3);
        let q = thin_q(&a);
        assert!(orthonormality_error(&q) < 1e-12);
    }
}
