//! # leva-linalg
//!
//! From-scratch linear algebra for the Leva reproduction. The paper's
//! matrix-factorization embedding path needs: sparse CSR storage for the
//! graph proximity matrix, a randomized truncated SVD (Halko et al.) to
//! factorize it in `O(d²N)`, a ProNE-style spectral-propagation enhancement,
//! and PCA for the embedding-compression experiments (Table 7). No external
//! linear-algebra crates are used — these substrates are part of the
//! reproduction.

#![warn(missing_docs)]
// Index loops are the clearest idiom in the numeric kernels below.
#![allow(clippy::needless_range_loop)]

mod dense;
mod eig;
mod parallel;
mod pca;
mod prone;
mod qr;
mod rsvd;
mod sparse;
mod vecops;

pub use dense::Matrix;
pub use eig::{sym_eig, SymEig};
pub use parallel::{band_workers, for_each_row_band, par_map_range, resolve_threads};
pub use pca::Pca;
pub use prone::{bessel_i, spectral_propagate, ProneOptions};
pub use qr::thin_q;
pub use rsvd::{randomized_svd, RsvdOptions, Svd};
pub use sparse::CsrMatrix;
pub use vecops::{
    axpy, cosine_similarity, dot, l1_distance, l2_distance, mean_vector, norm2, normalize,
};
