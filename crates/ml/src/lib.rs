//! # leva-ml
//!
//! A from-scratch downstream-ML substrate for the Leva reproduction: the
//! exact model families the paper evaluates — random forests, logistic
//! regression with ElasticNet regularization, ElasticNet/linear regression,
//! and 2-layer fully connected neural networks — plus the paper's metrics
//! (accuracy, MAE; R² for the tests), seeded train/test splitting, grid
//! search, and the ARDA-style random-injection selector behind the
//! *Full Table + Feature Engineering* baseline.

#![warn(missing_docs)]
// Index loops are the clearest idiom in the numeric kernels below.
#![allow(clippy::needless_range_loop)]

mod dataset;
mod elasticnet;
mod forest;
mod gridsearch;
mod linear;
mod logistic;
mod metrics;
mod mlp;
mod model;
mod select;
mod split;
mod tree;

pub use dataset::{Dataset, Standardizer, Task};
pub use elasticnet::ElasticNet;
pub use forest::{ForestConfig, RandomForest};
pub use gridsearch::{grid_search, GridSearchResult};
pub use linear::LinearRegression;
pub use logistic::LogisticRegression;
pub use metrics::{accuracy, mae, r2_score};
pub use mlp::{Mlp, MlpConfig};
pub use model::{solve_linear_system, Model};
pub use select::{project_columns, random_injection_selection};
pub use split::train_test_split;
pub use tree::{DecisionTree, TreeConfig};
