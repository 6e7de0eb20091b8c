//! # leva-relational
//!
//! The in-memory relational substrate underneath the Leva reproduction:
//! typed cell [`Value`]s, columnar [`Table`]s, [`Database`] collections with
//! optional oracle KFK metadata, a from-scratch CSV reader/writer, column
//! statistics (distinct ratio, kurtosis, quantiles) consumed by the
//! textification stage, and the augmentation join used by the paper's
//! oracle baselines.
//!
//! Leva itself (see the `leva` crate) never reads declared keys or join
//! paths — that metadata exists purely so the *Full* / *Full+FE* baselines
//! can act as the human-with-perfect-schema-knowledge upper bound that the
//! paper compares against.

#![warn(missing_docs)]

mod column;
mod database;
mod datetime;
mod error;
mod join;
mod stats;
mod table;
mod value;

pub mod csv;
pub mod ingest;

pub use column::{Column, DataType};
pub use csv::Ingested;
pub use database::{Database, ForeignKey};
pub use datetime::parse_datetime;
pub use error::{RelationalError, Result};
pub use ingest::{CellIssue, IngestMode, IngestOptions, IngestReport, IssueReason};
pub use join::augment_join;
pub use stats::{
    column_stats, excess_kurtosis, mean, quantile, quantile_sorted, sentinel_fraction, std_dev,
    ColumnStats,
};
pub use table::Table;
pub use value::Value;
