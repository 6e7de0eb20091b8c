//! The coalescing engine: a bounded request queue drained by batch
//! workers that merge compatible featurize requests into single model
//! calls, executed against a hot-swappable model pinned per batch. A
//! worker never waits for more requests: it takes what is queued when it
//! pops, so merges come from requests that arrive while a batch runs.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use leva::{
    AppendReport, ArtifactError, Featurization, FeaturizeRequest, IngestOptions, LevaError,
    LevaModel, RowSource,
};
use leva_linalg::Matrix;
use leva_relational::{Table, Value};

use crate::config::ServeConfig;
use crate::metrics::{AppendPhase, LogHistogram, Metrics};
use crate::model::{ModelHandle, ServingModel};

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The request queue is full; the client should back off and retry.
    Overloaded,
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
            ServeError::Overloaded => write!(f, "server overloaded: request queue is full"),
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

/// Where a queued request's result is delivered.
type Response = mpsc::Receiver<Result<FeatResponse, ServeError>>;

struct Pending {
    request: FeaturizeRequest,
    tx: mpsc::SyncSender<Result<FeatResponse, ServeError>>,
    enqueued: Instant,
}

struct QueueState {
    items: VecDeque<Pending>,
    open: bool,
}

/// The request-coalescing serving engine. Cheap to share (`Arc`); the
/// HTTP/binary front ends and the admin endpoints all talk to this.
pub struct Engine {
    handle: ModelHandle,
    metrics: Metrics,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    config: ServeConfig,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes admin appends: each one is a clone-patch-swap against
    /// the current model, so two running concurrently would publish two
    /// divergent successors and silently drop one batch.
    append_lock: Mutex<()>,
}

impl Engine {
    /// Prepares `model` for serving (version 1) and spawns the configured
    /// batch workers.
    pub fn new(model: LevaModel, config: ServeConfig) -> Result<Arc<Engine>, ServeError> {
        config.validate().map_err(ServeError::Protocol)?;
        let engine = Arc::new(Engine {
            handle: ModelHandle::new(ServingModel::prepare(model)),
            metrics: Metrics::new(),
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                open: true,
            }),
            not_empty: Condvar::new(),
            config,
            workers: Mutex::new(Vec::new()),
            append_lock: Mutex::new(()),
        });
        let mut workers = Vec::new();
        for _ in 0..engine.config.batch_workers {
            let e = Arc::clone(&engine);
            workers.push(std::thread::spawn(move || e.worker_loop()));
        }
        *engine.workers.lock().unwrap_or_else(|e| e.into_inner()) = workers;
        Ok(engine)
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

    /// Submits one featurize request and blocks until its batch executes.
    /// Fails fast with [`ServeError::Overloaded`] when the queue is full.
    pub fn submit(&self, request: FeaturizeRequest) -> Result<FeatResponse, ServeError> {
        let rx = {
            let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.enqueue(&mut q, request)?
        };
        self.not_empty.notify_one();
        match rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }

    /// Queues one request under the caller's queue lock and returns the
    /// channel its response arrives on.
    fn enqueue(
        &self,
        q: &mut QueueState,
        request: FeaturizeRequest,
    ) -> Result<Response, ServeError> {
        if !q.open {
            return Err(ServeError::ShuttingDown);
        }
        if q.items.len() >= self.config.queue_capacity {
            return Err(ServeError::Overloaded);
        }
        let (tx, rx) = mpsc::sync_channel(1);
        q.items.push_back(Pending {
            request,
            tx,
            enqueued: Instant::now(),
        });
        self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        Ok(rx)
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
    /// patched model in as the next epoch. In-flight batches keep their
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

    /// Closes the queue, drains every pending request, and joins the
    /// batch workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.open = false;
        }
        self.not_empty.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for w in workers {
            let _ = w.join();
        }
    }

    /// Renders the `/metrics` JSON document.
    pub fn metrics_json(&self) -> String {
        use std::fmt::Write as _;
        let m = &self.metrics;
        let model = self.current_model();
        let batch = m.batch_rows_snapshot();
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
        out.push_str(",\"batch_rows\":[");
        for (i, (lo, count)) in batch.buckets().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{lo},{count}]");
        }
        out.push(']');
        let _ = write!(
            out,
            ",\"queue_depth\":{}",
            m.queue_depth.load(Ordering::Relaxed)
        );
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

    /// Rows a request contributes to the batch budget. `BaseAll` has no
    /// cheap count before a model is pinned, so it fills the batch.
    fn budget_rows(&self, request: &FeaturizeRequest) -> usize {
        request
            .row_count_hint()
            .unwrap_or(self.config.max_batch_rows)
            .max(1)
    }

    fn worker_loop(self: &Arc<Self>) {
        loop {
            let batch = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                while q.items.is_empty() && q.open {
                    q = self.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
                }
                let first = match q.items.pop_front() {
                    Some(p) => p,
                    None => return, // closed and drained
                };
                let mut rows = self.budget_rows(&first.request);
                let mut batch = vec![first];
                // Take whatever else is already queued, up to the row
                // budget, and execute at once.
                while rows < self.config.max_batch_rows {
                    let Some(next) = q.items.pop_front() else {
                        break;
                    };
                    rows += self.budget_rows(&next.request);
                    batch.push(next);
                }
                batch
            };
            self.metrics
                .queue_depth
                .fetch_sub(batch.len() as u64, Ordering::Relaxed);
            // Pin one model for the whole batch: every response in it is
            // produced by, and stamped with, exactly this artifact even
            // if a swap lands mid-execution.
            let model = self.handle.current();
            self.execute(&model, batch);
        }
    }

    /// Executes one coalesced batch against a pinned model and delivers
    /// per-request responses.
    fn execute(&self, serving: &ServingModel, batch: Vec<Pending>) {
        // Group indices by merge key: base-table requests merge per
        // featurization; external tables additionally need an identical
        // column list.
        let mut groups: Vec<(Featurization, Option<Vec<String>>, Vec<usize>)> = Vec::new();
        for (i, p) in batch.iter().enumerate() {
            let cols = match &p.request.source {
                RowSource::External(t) => Some(
                    t.column_names()
                        .into_iter()
                        .map(str::to_owned)
                        .collect::<Vec<_>>(),
                ),
                _ => None,
            };
            match groups
                .iter_mut()
                .find(|(f, c, _)| *f == p.request.feat && *c == cols)
            {
                Some((_, _, members)) => members.push(i),
                None => groups.push((p.request.feat, cols, vec![i])),
            }
        }

        let mut batch: Vec<Option<Pending>> = batch.into_iter().map(Some).collect();
        for (feat, cols, members) in groups {
            let pending: Vec<Pending> = members
                .into_iter()
                .map(|i| batch[i].take().expect("each request joins one group"))
                .collect();
            match cols {
                None => self.run_base_group(serving, feat, pending),
                Some(_) => self.run_external_group(serving, feat, pending),
            }
        }
    }

    /// Merges base-table requests (`BaseAll` + `BaseRows`) into one call.
    fn run_base_group(&self, serving: &ServingModel, feat: Featurization, group: Vec<Pending>) {
        let base_rows = serving.model.base_row_count();
        let row_lists: Vec<Vec<usize>> = group
            .iter()
            .map(|p| match &p.request.source {
                RowSource::BaseAll => (0..base_rows).collect(),
                RowSource::BaseRows(rows) => rows.clone(),
                RowSource::External(_) => unreachable!("external requests grouped separately"),
            })
            .collect();
        if group.len() == 1 {
            let p = group.into_iter().next().expect("len checked");
            self.respond_single(serving, p);
            return;
        }
        let merged: Vec<usize> = row_lists.iter().flatten().copied().collect();
        let total = merged.len();
        match serving
            .model
            .featurize(&FeaturizeRequest::base_rows(merged, feat))
        {
            Ok(matrix) => {
                self.metrics.batches.fetch_add(1, Ordering::Relaxed);
                self.metrics.record_batch_rows(total as u64);
                let mut offset = 0;
                for (p, rows) in group.into_iter().zip(&row_lists) {
                    let slice = slice_rows(&matrix, offset, rows.len());
                    offset += rows.len();
                    self.deliver(serving, p, Ok(slice));
                }
            }
            // One bad row index poisons the merged call; retry each
            // request alone so only the offender gets the error.
            Err(_) => {
                for p in group {
                    self.respond_single(serving, p);
                }
            }
        }
    }

    /// Merges external-table requests with identical columns into one
    /// call over a concatenated table.
    fn run_external_group(&self, serving: &ServingModel, feat: Featurization, group: Vec<Pending>) {
        if group.len() == 1 {
            let p = group.into_iter().next().expect("len checked");
            self.respond_single(serving, p);
            return;
        }
        let columns: Vec<String> = match &group[0].request.source {
            RowSource::External(t) => t.column_names().into_iter().map(str::to_owned).collect(),
            _ => unreachable!("external group holds external requests"),
        };
        let mut merged = Table::new("coalesced_batch", columns);
        let mut row_counts = Vec::with_capacity(group.len());
        let mut merge_ok = true;
        'merge: for p in &group {
            let RowSource::External(t) = &p.request.source else {
                unreachable!("external group holds external requests")
            };
            row_counts.push(t.row_count());
            for r in 0..t.row_count() {
                let Ok(values) = t.row(r) else {
                    merge_ok = false;
                    break 'merge;
                };
                if merged.push_row(values).is_err() {
                    merge_ok = false;
                    break 'merge;
                }
            }
        }
        if !merge_ok {
            for p in group {
                self.respond_single(serving, p);
            }
            return;
        }
        let total = merged.row_count();
        match serving
            .model
            .featurize(&FeaturizeRequest::external(merged, feat))
        {
            Ok(matrix) => {
                self.metrics.batches.fetch_add(1, Ordering::Relaxed);
                self.metrics.record_batch_rows(total as u64);
                let mut offset = 0;
                for (p, rows) in group.into_iter().zip(row_counts) {
                    let slice = slice_rows(&matrix, offset, rows);
                    offset += rows;
                    self.deliver(serving, p, Ok(slice));
                }
            }
            Err(_) => {
                for p in group {
                    self.respond_single(serving, p);
                }
            }
        }
    }

    /// Runs one request un-merged (singleton group or merge fallback).
    fn respond_single(&self, serving: &ServingModel, p: Pending) {
        let result = serving.model.featurize(&p.request);
        if let Ok(m) = &result {
            self.metrics.batches.fetch_add(1, Ordering::Relaxed);
            self.metrics.record_batch_rows(m.rows() as u64);
        }
        self.deliver(serving, p, result);
    }

    /// Stamps and sends one response, recording latency and row/error
    /// counters.
    fn deliver(&self, serving: &ServingModel, p: Pending, result: Result<Matrix, LevaError>) {
        let elapsed_us = p.enqueued.elapsed().as_micros() as u64;
        self.metrics.record_latency_us(elapsed_us);
        let response = match result {
            Ok(matrix) => {
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
        };
        // A client that gave up (disconnected) is the only way this
        // fails; the batch must keep going.
        let _ = p.tx.send(response);
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

/// Copies `len` rows of `m` starting at `start` into a fresh matrix.
fn slice_rows(m: &Matrix, start: usize, len: usize) -> Matrix {
    let mut out = Matrix::zeros(len, m.cols());
    for i in 0..len {
        out.row_mut(i).copy_from_slice(m.row(start + i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use leva::{Leva, LevaConfig};
    use leva_relational::Database;

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

    /// Requests queued before a worker can pop are one batch: holding the
    /// queue lock while enqueuing makes the merge deterministic, and each
    /// slice of the merged call must equal the request featurized alone.
    #[test]
    fn queued_requests_coalesce_into_one_batch() {
        let model = fitted();
        let requests: Vec<FeaturizeRequest> = (0..8)
            .map(|i| FeaturizeRequest::base_rows(vec![i, 23 - i], Featurization::RowOnly))
            .collect();
        let expected: Vec<Matrix> = requests
            .iter()
            .map(|r| model.featurize(r).unwrap())
            .collect();
        let engine = Engine::new(model, ServeConfig::default()).unwrap();

        let responses: Vec<Response> = {
            let mut q = engine.queue.lock().unwrap();
            requests
                .into_iter()
                .map(|r| engine.enqueue(&mut q, r).unwrap())
                .collect()
        };
        engine.not_empty.notify_all();
        for (rx, want) in responses.iter().zip(&expected) {
            let got = rx.recv().unwrap().unwrap().matrix;
            assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
            for (x, y) in got.data().iter().zip(want.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        let m = engine.metrics();
        let batches = m.batches.load(Ordering::Relaxed);
        let requests = m.requests.load(Ordering::Relaxed);
        assert!(
            batches < requests,
            "no coalescing happened: batches={batches} requests={requests}"
        );
        assert_eq!(batches, 1);
        // All 16 rows went through one call: the histogram's only bucket
        // is [16, 32), above any single request's two rows.
        assert_eq!(m.batch_rows_snapshot().buckets(), vec![(16, 1)]);
        engine.shutdown();
    }
}
