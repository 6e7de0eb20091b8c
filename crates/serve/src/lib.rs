//! # leva-serve
//!
//! A serving daemon for fitted Leva models (DESIGN.md §6.12). The
//! library pipeline ends at a [`LevaModel`](leva::LevaModel) artifact;
//! this crate keeps one resident and serves featurization over the
//! network:
//!
//! * **One entry point.** The server speaks exactly the library's
//!   [`FeaturizeRequest`](leva::FeaturizeRequest) type on the wire — as
//!   JSON (`POST /featurize`) and as a compact length-prefixed binary
//!   protocol ([`wire`]), multiplexed on one port by sniffing the
//!   4-byte [`BINARY_MAGIC`](wire::BINARY_MAGIC).
//! * **Direct execution.** Each connection thread runs its request
//!   itself: [`Engine::submit`] pins the current model, calls
//!   `LevaModel::featurize` once and stamps the response. There is no
//!   queue to wait in and nothing merges requests; at most
//!   `max_connections` requests run at once.
//! * **Hot model swap.** `/admin/swap` (or SIGHUP in the binary)
//!   atomically replaces the model ([`ModelHandle`]); in-flight requests
//!   finish on the model they pinned, every response is stamped with the
//!   artifact version + checksum that produced it, and a corrupt
//!   artifact is rejected while the old model keeps serving.
//! * **Incremental append.** `/admin/append` absorbs new rows into the
//!   served model without a refit (DESIGN.md §6.16): the engine clones
//!   the pinned model, runs the library's delta-ingestion path — graph
//!   patch, RETRO-style embedding retrofit, targeted featurizer-slot
//!   patch — and publishes the patched model as the next epoch while the
//!   previous one keeps serving. Its checksum is the CRC-32 of exactly
//!   the artifact `LevaModel::save` would write for it, computed before
//!   the swap takes its write lock.
//! * **Metrics.** `/metrics` reports request latency and socket-write
//!   percentiles, rows/s, serving-cache bytes, and swap/append counters
//!   ([`Metrics`]).
//!
//! Hand-rolled on `std::net` with zero new dependencies — the workspace
//! builds offline.

#![warn(missing_docs)]

mod config;
mod engine;
mod http;
pub mod json;
mod metrics;
mod model;
pub mod wire;

pub use config::ServeConfig;
pub use engine::{AppendOutcome, Engine, FeatResponse, ServeError};
pub use http::Server;
pub use metrics::{AppendPhase, LogHistogram, Metrics};
pub use model::{ModelHandle, ServingModel};
