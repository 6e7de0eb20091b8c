//! # leva-bench
//!
//! The harness that regenerates every table and figure of the Leva
//! paper's evaluation (see DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results). The shared
//! [`protocol`] module implements the common split/featurize/train/score
//! pipeline; each `src/bin/exp_*.rs` binary prints one table or figure,
//! and `tests/quality_gates.rs` pins the retrofit and schema-free quality
//! contracts on the bundled datasets. Performance is measured by the
//! repository benchmark, `bench_all/`, not here.

#![warn(missing_docs)]

pub mod protocol;
pub mod report;

pub use protocol::{
    eval_model, leva_config, oracle_metric, prepare, split_indices, task_of, Approach, EvalOptions,
    ModelKind, Prepared,
};
