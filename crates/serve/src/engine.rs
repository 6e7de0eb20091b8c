//! The serving engine: one featurize request is one
//! [`LevaModel::featurize`] call, run on the caller's connection thread
//! against the hot-swappable model pinned when the request starts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use leva::{AppendReport, ArtifactError, FeaturizeRequest, IngestOptions, LevaError, LevaModel};
use leva_linalg::Matrix;
use leva_relational::Value;

use crate::config::ServeConfig;
use crate::metrics::{AppendPhase, LogHistogram, Metrics};
use crate::model::{ModelHandle, ServingModel};

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The daemon is draining and no longer accepts requests.
    ShuttingDown,
    /// The model rejected the request (bad row index, schema mismatch …).
    Model(LevaError),
    /// A swap artifact failed to decode; the previous model keeps serving.
    Artifact(ArtifactError),
    /// A malformed wire request (bad JSON, bad binary frame, bad route).
    Protocol(String),
    /// An I/O failure on a socket or artifact file.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Model(e) => write!(f, "featurization failed: {e}"),
            ServeError::Artifact(e) => write!(f, "artifact rejected: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<LevaError> for ServeError {
    fn from(e: LevaError) -> Self {
        ServeError::Model(e)
    }
}

impl From<ArtifactError> for ServeError {
    fn from(e: ArtifactError) -> Self {
        ServeError::Artifact(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Outcome of an admin append: the identity of the patched model now
/// serving, plus what the incremental maintenance pass did.
#[derive(Debug)]
pub struct AppendOutcome {
    /// Swap epoch of the patched model.
    pub version: u64,
    /// Artifact checksum of the patched model: the CRC-32 of exactly the
    /// bytes [`LevaModel::save`] would write for it.
    pub checksum: u32,
    /// The model-level append report.
    pub report: AppendReport,
}

/// A completed featurization, stamped with the identity of the exact
/// model that produced it.
#[derive(Debug)]
pub struct FeatResponse {
    /// Swap epoch of the model that served this request.
    pub version: u64,
    /// Artifact checksum of that model.
    pub checksum: u32,
    /// The feature matrix, one row per requested row.
    pub matrix: Matrix,
}

/// The serving engine: each request runs on its caller's thread against
/// the model pinned at submit. Cheap to share (`Arc`); the HTTP/binary
/// front ends and the admin endpoints all talk to this.
pub struct Engine {
    handle: ModelHandle,
    metrics: Metrics,
    config: ServeConfig,
    /// Set by [`Engine::shutdown`]; later submits are refused.
    closed: AtomicBool,
    /// Serializes admin appends: each one is a clone-patch-swap against
    /// the current model, so two running concurrently would publish two
    /// divergent successors and silently drop one append.
    append_lock: Mutex<()>,
}

impl Engine {
    /// Prepares `model` for serving (version 1).
    pub fn new(model: LevaModel, config: ServeConfig) -> Result<Arc<Engine>, ServeError> {
        config.validate().map_err(ServeError::Protocol)?;
        Ok(Arc::new(Engine {
            handle: ModelHandle::new(ServingModel::prepare(model)),
            metrics: Metrics::new(),
            config,
            closed: AtomicBool::new(false),
            append_lock: Mutex::new(()),
        }))
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The engine's metrics block.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The currently served model (pinned).
    pub fn current_model(&self) -> Arc<ServingModel> {
        self.handle.current()
    }

    /// Runs one featurize request on the calling thread: pins the current
    /// model, calls [`LevaModel::featurize`] once and stamps the result
    /// with that model's identity, even if a swap lands mid-call. Fails
    /// with [`ServeError::ShuttingDown`] once [`Engine::shutdown`] ran.
    pub fn submit(&self, request: FeaturizeRequest) -> Result<FeatResponse, ServeError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let started = Instant::now();
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let serving = self.handle.current();
        let result = serving.model.featurize(&request);
        self.metrics
            .record_latency_us(started.elapsed().as_micros() as u64);
        match result {
            Ok(matrix) => {
                self.metrics.batches.fetch_add(1, Ordering::Relaxed);
                self.metrics.record_rows(matrix.rows() as u64);
                Ok(FeatResponse {
                    version: serving.version,
                    checksum: serving.checksum,
                    matrix,
                })
            }
            Err(e) => {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Model(e))
            }
        }
    }

    /// Decodes `bytes` as a model artifact and hot-swaps it in. On decode
    /// failure the current model keeps serving and the rejection is
    /// counted. Returns the `(version, checksum)` of the new model.
    pub fn swap_from_bytes(&self, bytes: &[u8]) -> Result<(u64, u32), ServeError> {
        let model = match LevaModel::from_bytes(bytes) {
            Ok(m) => m,
            Err(e) => {
                self.metrics.swaps_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Artifact(e));
            }
        };
        let stamp = self.handle.swap(model);
        self.metrics.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(stamp)
    }

    /// Memory-maps an artifact file and hot-swaps it in: the store and the
    /// graph adjacency are served zero-copy from the mapping, so swap cost
    /// is independent of their size. The deferred `STOR`/`GRPH` checks
    /// ([`LevaModel::verify_deferred`]) settle before the swap, so a
    /// corrupt file is rejected while the previous model keeps serving.
    /// The identity checksum is the CRC-32 of the *file bytes*, computed
    /// in one streaming pass — for an artifact written by
    /// [`LevaModel::save`] this equals the re-serialization checksum
    /// [`ServingModel::prepare`] would stamp, because the encoder is
    /// canonical.
    pub fn swap_from_path(&self, path: &std::path::Path) -> Result<(u64, u32), ServeError> {
        let (checksum, artifact_bytes) = match hash_file(path) {
            Ok(stamp) => stamp,
            Err(e) => {
                self.metrics.swaps_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Io(e));
            }
        };
        let model = match LevaModel::load_mmap(path) {
            Ok(m) => m,
            Err(e) => {
                self.metrics.swaps_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Artifact(e));
            }
        };
        // The library defers the mapped STOR/GRPH CRCs to first featurize,
        // but a hot swap must never replace a healthy model with one whose
        // every request would fail a checksum — settle both now, while the
        // previous model still serves.
        if let Err(e) = model.verify_deferred() {
            self.metrics.swaps_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Artifact(e));
        }
        let stamp = self
            .handle
            .swap_with(|| ServingModel::prepare_mapped(model, checksum, artifact_bytes));
        self.metrics.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(stamp)
    }

    /// Appends `rows` to `table` of the served model without a refit:
    /// clones the pinned model (carrying its warm featurizer cache over),
    /// runs the library's incremental append — graph patch, embedding
    /// retrofit, targeted featurizer-slot patch — and hot-swaps the
    /// patched model in as the next epoch. In-flight requests keep their
    /// pinned pre-append model; the previous model serves throughout. On
    /// failure nothing is published and the rejection is counted.
    pub fn append_rows(
        &self,
        table: &str,
        rows: &[Vec<Value>],
        options: &IngestOptions,
    ) -> Result<AppendOutcome, ServeError> {
        let _guard = self.append_lock.lock().unwrap_or_else(|e| e.into_inner());
        let started = Instant::now();
        let current = self.handle.current();
        let mut model = current.model.clone();
        // The clone deliberately drops the featurizer cache; re-seed it
        // from the identical origin state so the append patches touched
        // slots instead of paying a full rebuild at swap time.
        model.warm_featurizer_from(&current.model);
        let cloned = Instant::now();
        let report = match model.append_rows_with(table, rows, options) {
            Ok(report) => report,
            Err(e) => {
                self.metrics
                    .appends_rejected
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Model(e));
            }
        };
        let applied = Instant::now();
        let next = ServingModel::prepare(model);
        let stamped = Instant::now();
        let (version, checksum) = self.handle.swap_with(|| next);
        let installed = Instant::now();
        for (phase, (from, to)) in AppendPhase::ALL.into_iter().zip([
            (started, cloned),
            (cloned, applied),
            (applied, stamped),
            (stamped, installed),
        ]) {
            let us = (to - from).as_micros().try_into().unwrap_or(u64::MAX);
            self.metrics.record_append_phase_us(phase, us);
        }
        self.metrics.appends.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .rows_appended
            .fetch_add(report.rows_appended as u64, Ordering::Relaxed);
        Ok(AppendOutcome {
            version,
            checksum,
            report,
        })
    }

    /// Refuses every later submit with [`ServeError::ShuttingDown`];
    /// requests already running finish on their own threads. Idempotent.
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Renders the `/metrics` JSON document.
    pub fn metrics_json(&self) -> String {
        use std::fmt::Write as _;
        let m = &self.metrics;
        let model = self.current_model();
        let mut out = String::with_capacity(1024);
        out.push('{');
        let _ = write!(out, "\"uptime_s\":{:.3}", m.uptime_s());
        let _ = write!(out, ",\"requests\":{}", m.requests.load(Ordering::Relaxed));
        let _ = write!(out, ",\"rows\":{}", m.rows.load(Ordering::Relaxed));
        let _ = write!(out, ",\"errors\":{}", m.errors.load(Ordering::Relaxed));
        let _ = write!(out, ",\"rows_per_s\":{:.3}", m.rows_per_s());
        for (name, hist) in [
            ("latency_us", m.latency_snapshot()),
            ("write_us", m.write_snapshot()),
        ] {
            let _ = write!(out, ",\"{name}\":");
            write_quantiles(&mut out, &hist);
        }
        let _ = write!(out, ",\"batches\":{}", m.batches.load(Ordering::Relaxed));
        let _ = write!(
            out,
            ",\"cache_bytes\":{}",
            model.model.featurizer().estimated_bytes()
        );
        // Resident vs mapped split of the embedding store and the graph
        // adjacency: a heap model reports everything resident; an
        // mmap-served model reports the f64 matrix and the CSR arrays as
        // mapped (the kernel pages them, they are not ours).
        let store = &model.model.store;
        let graph = &model.model.graph;
        let _ = write!(
            out,
            ",\"memory\":{{\"store_resident_bytes\":{},\"store_mapped_bytes\":{},\
             \"store_backing\":\"{}\",\"graph_resident_bytes\":{},\
             \"graph_mapped_bytes\":{},\"graph_backing\":\"{}\"}}",
            store.resident_bytes(),
            store.mapped_bytes(),
            if store.is_mapped() { "mapped" } else { "heap" },
            graph.resident_bytes(),
            graph.mapped_bytes(),
            if graph.is_mapped() { "mapped" } else { "heap" }
        );
        let _ = write!(
            out,
            ",\"model\":{{\"version\":{},\"checksum\":{},\"artifact_bytes\":{}}}",
            model.version, model.checksum, model.artifact_bytes
        );
        let disc = &model.model.config.discovery;
        let inj = model.model.discovery_injection;
        let _ = write!(
            out,
            ",\"discovery\":{{\"enabled\":{},\"threshold\":{},\"relationships\":{},\
             \"groups_applied\":{},\"edges_added\":{},\"value_nodes_added\":{}}}",
            disc.enabled,
            disc.threshold,
            model.model.discovered.len(),
            inj.groups_applied,
            inj.edges_added,
            inj.value_nodes_added
        );
        let _ = write!(out, ",\"swaps\":{}", m.swaps.load(Ordering::Relaxed));
        let _ = write!(
            out,
            ",\"swaps_rejected\":{}",
            m.swaps_rejected.load(Ordering::Relaxed)
        );
        let _ = write!(
            out,
            ",\"appends\":{{\"applied\":{},\"rejected\":{},\"rows\":{}",
            m.appends.load(Ordering::Relaxed),
            m.appends_rejected.load(Ordering::Relaxed),
            m.rows_appended.load(Ordering::Relaxed)
        );
        for (phase, hist) in AppendPhase::ALL.into_iter().zip(m.append_phase_snapshot()) {
            let _ = write!(out, ",\"{}\":", phase.name());
            write_quantiles(&mut out, &hist);
        }
        out.push('}');
        out.push('}');
        out
    }
}

/// Appends `{"count":…,"p50":…,"p95":…,"p99":…}` for `hist` to a
/// `/metrics` document.
fn write_quantiles(out: &mut String, hist: &LogHistogram) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        hist.count(),
        hist.quantile(0.50),
        hist.quantile(0.95),
        hist.quantile(0.99)
    );
}

/// CRC-32 and length of a file, computed in one buffered streaming pass
/// (no full read into memory — the mmap swap path must stay O(1) in
/// artifact size for *allocations*; the hash itself is a sequential
/// read).
fn hash_file(path: &std::path::Path) -> std::io::Result<(u32, usize)> {
    use std::io::Read as _;
    let mut file = std::fs::File::open(path)?;
    let mut crc = leva_interner::codec::Crc32::new();
    let mut len = 0usize;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok((crc.finish(), len));
        }
        crc.update(&buf[..n]);
        len += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leva::{Featurization, Leva, LevaConfig};
    use leva_relational::{Database, Table};

    fn fitted() -> LevaModel {
        let mut db = Database::new();
        let mut base = Table::new("base", vec!["id", "grp", "amount", "target"]);
        let mut aux = Table::new("aux", vec!["id", "tag"]);
        for i in 0..24 {
            base.push_row(vec![
                format!("e{i}").into(),
                ["a", "b", "c"][i % 3].into(),
                Value::Float(i as f64),
                Value::Int((i % 2) as i64),
            ])
            .unwrap();
            aux.push_row(vec![format!("e{i}").into(), format!("t{}", i % 5).into()])
                .unwrap();
        }
        db.add_table(base).unwrap();
        db.add_table(aux).unwrap();
        Leva::with_config(LevaConfig::fast())
            .base_table("base")
            .target("target")
            .fit(&db)
            .unwrap()
    }

    /// Concurrent submits each run alone on their own thread: every
    /// response is bitwise the request featurized by itself, and every
    /// request is counted once, as one featurize call or one error.
    #[test]
    fn concurrent_submits_match_lone_featurize() {
        let model = fitted();
        let requests: Vec<FeaturizeRequest> = (0..8)
            .map(|i| FeaturizeRequest::base_rows(vec![i, 23 - i], Featurization::RowOnly))
            .chain([
                FeaturizeRequest::base_all(Featurization::RowPlusValue),
                FeaturizeRequest::base_rows(vec![99], Featurization::RowOnly),
            ])
            .collect();
        let expected: Vec<Option<Matrix>> =
            requests.iter().map(|r| model.featurize(r).ok()).collect();
        let engine = Engine::new(model, ServeConfig::default()).unwrap();

        const THREADS: usize = 8;
        const ROUNDS: usize = 5;
        // Every thread starts at once, so submits overlap from the first.
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (engine, requests, expected, start) = (&engine, &requests, &expected, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..ROUNDS * requests.len() {
                        let which = (t + i) % requests.len();
                        let got = engine.submit(requests[which].clone());
                        match (&expected[which], got) {
                            (Some(want), Ok(resp)) => {
                                assert_eq!(resp.version, 1);
                                let got = resp.matrix;
                                assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
                                for (x, y) in got.data().iter().zip(want.data()) {
                                    assert_eq!(x.to_bits(), y.to_bits(), "request {which}");
                                }
                            }
                            (None, Err(ServeError::Model(_))) => {}
                            (want, got) => panic!(
                                "request {which}: expected ok={}, got {got:?}",
                                want.is_some()
                            ),
                        }
                    }
                });
            }
        });

        let m = engine.metrics();
        let submitted = (THREADS * ROUNDS * requests.len()) as u64;
        let batches = m.batches.load(Ordering::Relaxed);
        let errors = m.errors.load(Ordering::Relaxed);
        assert_eq!(m.requests.load(Ordering::Relaxed), submitted);
        assert_eq!(batches + errors, submitted);
        assert_eq!(
            errors,
            (THREADS * ROUNDS) as u64,
            "one bad request per round"
        );
        assert_eq!(m.latency_snapshot().count(), submitted);

        engine.shutdown();
        let err = engine
            .submit(FeaturizeRequest::base_all(Featurization::RowOnly))
            .unwrap_err();
        assert!(matches!(err, ServeError::ShuttingDown));
        assert_eq!(m.requests.load(Ordering::Relaxed), submitted);
    }
}
