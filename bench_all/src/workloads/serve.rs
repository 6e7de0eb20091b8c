//! `serve_point`, `serve_bulk` and `serve_append`: a `leva_serve::Server`
//! on 127.0.0.1:0 serving a restbase model (scale 5, dim 128, MF), driven
//! over the wire from this process with at most two client threads and two
//! connections. Every response is checked bitwise against in-process
//! `LevaModel::featurize`, together with its version and checksum stamp.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use leva::{EmbeddingMethod, FeaturizeRequest, LevaConfig, LevaModel, RowSource};
use leva_interner::codec::Crc32;
use leva_linalg::Matrix;
use leva_relational::{csv, IngestOptions, Table, Value};
use leva_serve::{wire, Engine, FeatResponse, ServeConfig, Server};

use super::fit::{fit_checked, split_dataset};
use super::{
    median_self_ms, repeated_setup, row_plus_value, same_bits, trace_trees, Ctx, Outcome, THREADS,
};
use crate::gen::Rng;
use crate::load::{
    closed_loop, json_cell, json_request, open_loop, parse_json_response, poisson_schedule,
    Arrival, BinaryClient, HttpClient,
};
use crate::report::{quote, Json, Summary};
use crate::trace;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Bulk,
    Append,
}

const SCALE: f64 = 5.0;
const DIM: usize = 128;
/// Share of reviews held out of the fit: external rows and appends.
const HELD_OUT: f64 = 0.1;
/// `serve_point` ladder: `(requests/s, share of the run's seconds)`.
const RUNGS: [(f64, f64); 3] = [(20.0, 0.6), (100.0, 0.2), (500.0, 0.2)];
/// A rung passes when its p99 stays within this limit.
const LATENCY_LIMIT_MS: f64 = 10.0;
/// A connection this far behind its schedule has a growing backlog.
const ABORT_BEHIND: Duration = Duration::from_secs(1);
/// Share of 1-row `base_rows` requests in the point mix; the rest are
/// 4-row `external` tables.
const ROW_SHARE: f64 = 0.8;
/// Point arrivals alternate between the binary and the HTTP connection.
/// Latency is bimodal: most HTTP replies take ~3 ms, binary replies stall ~40 ms
/// unless their connection sat idle for ~100 ms first. Alternating keeps
/// the fast mass near two thirds, so the median sits inside the fast
/// cluster and the 90th percentile inside the stalled one; a split that
/// put the fast mass near one half would leave the median on the boundary.
const HTTP_EVERY: usize = 2;
const POINT_POOL: usize = 64;
const POINT_EXT_ROWS: usize = 4;
const BULK_POOL: usize = 8;
const BULK_ROWS: usize = 1024;
const APPEND_ROWS: usize = 8;
const APPEND_RATE: f64 = 1.0;
/// Requests re-run in process, layer by layer, when traced.
const DECOMPOSE: usize = 64;

struct Setup {
    server: Server,
    /// Stamp of the initially served model (version 1).
    checksum: u32,
    base: String,
    base_rows: usize,
    /// `base_all` features of the served model, for 1-row requests.
    expected_base: Matrix,
    /// External requests with their expected features.
    pool: Vec<(FeaturizeRequest, Matrix)>,
    /// Held-out reviews, target stripped: the rows appends send.
    held_out: Vec<Vec<Value>>,
    /// `serve_append`'s replica: the served model, appended to locally.
    local: Option<LevaModel>,
    /// Graph nodes, graph edges and featurizer cache size (MB).
    counts: (usize, usize, f64),
}

fn setup(ctx: &Ctx, kind: Kind) -> Result<Setup, String> {
    let ds = leva_datasets::restbase(SCALE, ctx.seed);
    let mut config = LevaConfig::fast().with_dim(DIM).with_threads(THREADS);
    config.method = EmbeddingMethod::MatrixFactorization;
    let input = split_dataset(&ds, HELD_OUT, ctx.seed, config);
    let model = fit_checked(&input)?;
    let cache_bytes = trace::span("featurizer.build", || model.featurizer().estimated_bytes());
    let counts = (
        model.graph.n_nodes(),
        model.graph.n_edges(),
        cache_bytes as f64 / 1e6,
    );

    // Request rows arrive as clients would send them: parsed from CSV.
    let test = input.test_table()?;
    let (_, train_csv) = input
        .sources
        .iter()
        .find(|(name, _)| *name == input.base)
        .ok_or("base table missing from the sources")?;
    let train = csv::read_csv_str_with(&input.base, train_csv, &IngestOptions::strict())
        .map_err(|e| e.to_string())?
        .table
        .drop_columns(&[input.target.as_str()])
        .map_err(|e| e.to_string())?;
    let rows_of = |t: &Table| -> Result<Vec<Vec<Value>>, String> {
        (0..t.row_count())
            .map(|r| t.row(r).map_err(|e| e.to_string()))
            .collect()
    };
    let held_out = rows_of(&test)?;
    let mut all_rows = rows_of(&train)?;
    all_rows.extend(held_out.iter().cloned());

    let engine = Engine::new(model, ServeConfig::default().with_addr("127.0.0.1:0"))
        .map_err(|e| e.to_string())?;
    let server = Server::start(Arc::clone(&engine)).map_err(|e| e.to_string())?;
    let served = engine.current_model();

    let (pool_size, pool_rows) = match kind {
        Kind::Bulk => (BULK_POOL, BULK_ROWS),
        Kind::Point | Kind::Append => (POINT_POOL, POINT_EXT_ROWS),
    };
    let columns = test.column_names();
    let mut rng = Rng::derive(ctx.seed, 0x9001);
    let pool = trace::span("bench.expect", || {
        (0..pool_size)
            .map(|_| {
                let mut table = Table::new("request", columns.clone());
                for _ in 0..pool_rows {
                    let row = all_rows[rng.below(all_rows.len())].clone();
                    table.push_row(row).map_err(|e| e.to_string())?;
                }
                let request = row_plus_value(RowSource::External(table));
                let x = served
                    .model
                    .featurize(&request)
                    .map_err(|e| e.to_string())?;
                Ok((request, x))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let expected_base = match kind {
        Kind::Bulk => Matrix::zeros(0, 0),
        Kind::Point | Kind::Append => trace::span("bench.expect", || {
            served.model.featurize(&row_plus_value(RowSource::BaseAll))
        })
        .map_err(|e| e.to_string())?,
    };
    let local = (kind == Kind::Append).then(|| {
        let mut local = served.model.clone();
        local.warm_featurizer_from(&served.model);
        local
    });
    Ok(Setup {
        checksum: served.checksum,
        base: input.base.clone(),
        base_rows: served.model.base_row_count(),
        expected_base,
        pool,
        held_out,
        local,
        counts,
        server,
    })
}

/// A request by reference into the set-up: a base row, an external table
/// from the pool, or the k-th append.
#[derive(Clone, Copy, Debug)]
enum Req {
    Row(usize),
    Ext(usize),
    Append(usize),
}

impl Setup {
    fn with_request<T>(&self, req: Req, f: impl FnOnce(&FeaturizeRequest) -> T) -> T {
        match req {
            Req::Ext(i) => f(&self.pool[i].0),
            Req::Row(r) => f(&row_plus_value(RowSource::BaseRows(vec![r]))),
            Req::Append(_) => unreachable!("appends are not featurize requests"),
        }
    }

    /// Draws one request of the point mix.
    fn point_request(&self, rng: &mut Rng) -> Req {
        if rng.f64() < ROW_SHARE {
            Req::Row(rng.below(self.base_rows))
        } else {
            Req::Ext(rng.below(self.pool.len()))
        }
    }

    /// Checks a reply from the initially served model.
    fn check(&self, req: Req, reply: Result<FeatResponse, String>) -> Result<(), String> {
        let resp = reply?;
        if resp.version != 1 || resp.checksum != self.checksum {
            return Err(format!(
                "stamp {}/{:08x}, expected 1/{:08x}",
                resp.version, resp.checksum, self.checksum
            ));
        }
        let ok = match req {
            Req::Row(r) => {
                resp.matrix.rows() == 1 && bits_eq(resp.matrix.row(0), self.expected_base.row(r))
            }
            Req::Ext(i) => same_bits(&resp.matrix, &self.pool[i].1),
            Req::Append(_) => false,
        };
        ok.then_some(())
            .ok_or_else(|| format!("{req:?}: features differ from in-process featurize"))
    }

    fn append_body(&self, k: usize) -> String {
        let rows: Vec<String> = self
            .append_rows(k)
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(json_cell).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!(
            "{{\"table\": {}, \"rows\": [{}]}}",
            quote(&self.base),
            rows.join(",")
        )
    }

    fn append_rows(&self, k: usize) -> &[Vec<Value>] {
        &self.held_out[k * APPEND_ROWS..(k + 1) * APPEND_ROWS]
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A client connection of either protocol.
enum Conn {
    Bin(BinaryClient),
    Http(HttpClient),
}

impl Conn {
    fn featurize(&mut self, request: &FeaturizeRequest) -> Result<FeatResponse, String> {
        match self {
            Conn::Bin(c) => c.featurize(request),
            Conn::Http(c) => c.featurize(request),
        }
    }
}

fn connect(st: &Setup, http: bool) -> Result<Conn, String> {
    let addr = st.server.local_addr();
    let conn = if http {
        HttpClient::connect(addr).map(Conn::Http)
    } else {
        BinaryClient::connect(addr).map(Conn::Bin)
    };
    conn.map_err(|e| e.to_string())
}

pub fn run(ctx: &Ctx, kind: Kind) -> Outcome {
    let mut out = Outcome {
        scale: match kind {
            Kind::Point => {
                "restbase scale 5, dim 128, MF; open loop 20/100/500 req/s, 80% 1-row \
                            base_rows + 20% 4-row external, alternating over 1 binary + 1 HTTP \
                            connection"
            }
            Kind::Bulk => {
                "restbase scale 5, dim 128, MF; closed loop, 2 binary connections, \
                           1024-row external requests"
            }
            Kind::Append => {
                "restbase scale 5, dim 128, MF; 20 req/s point reads (binary) beside \
                             1 append/s of 8 reviews (HTTP)"
            }
        }
        .into(),
        ..Outcome::default()
    };
    let st = match repeated_setup(ctx, &mut out, || setup(ctx, kind)) {
        Ok(st) => st,
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            return out;
        }
    };
    let measured = match kind {
        Kind::Point => point(ctx, &st, &mut out),
        Kind::Bulk => bulk(ctx, &st, &mut out),
        Kind::Append => append(ctx, st, &mut out),
    };
    if let Err(e) = measured {
        out.attempted += 1;
        out.fail(e);
    }
    out
}

/// Open-loop ladder. `op_ms` is the 20 req/s rung.
fn point(ctx: &Ctx, st: &Setup, out: &mut Outcome) -> Result<(), String> {
    let mut conns = [connect(st, false)?, connect(st, true)?];
    let mut rng = Rng::derive(ctx.seed, 0x1ad);
    let mut max_rate = 0.0;
    let mut saturated = false;
    let mut lateness = Vec::new();
    let mut first_rung: Vec<(Req, bool)> = Vec::new();
    for (rung, &(rate, share)) in RUNGS.iter().enumerate() {
        let duration = share * ctx.seconds;
        let mut plans: [Vec<Arrival<Req>>; 2] = Default::default();
        for (i, due) in poisson_schedule(&mut rng, rate, duration)
            .into_iter()
            .enumerate()
        {
            let request = st.point_request(&mut rng);
            plans[usize::from(i % HTTP_EVERY == HTTP_EVERY - 1)].push(Arrival { due, request });
        }
        // Above a rung that built a backlog every rung would; skip them.
        if saturated {
            continue;
        }
        if rung == 0 {
            for (c, plan) in plans.iter().enumerate() {
                first_rung.extend(plan.iter().map(|a| (a.request, c == 1)));
            }
        }
        let start = Instant::now();
        let logs = open_loop(
            &mut conns,
            &plans,
            ABORT_BEHIND,
            |conn, &req| (req, st.with_request(req, |r| conn.featurize(r))),
            |(req, reply)| st.check(req, reply),
        );
        let wall_s = start.elapsed().as_secs_f64();
        let mut latencies = Vec::new();
        let mut failed = 0;
        for (log, proto) in logs.iter().zip(["binary", "http"]) {
            let mut per_proto = Vec::new();
            for rec in &log.records {
                out.attempted += 1;
                per_proto.push(rec.latency_ms);
                lateness.extend(rec.lateness_ms);
                if let Err(e) = &rec.result {
                    failed += 1;
                    out.fail(e.clone());
                }
            }
            out.samples(format!("latency_ms.r{rate}.{proto}"), "ms", &per_proto);
            latencies.extend(per_proto);
        }
        saturated = logs.iter().any(|l| l.saturated);
        out.samples(format!("latency_ms.r{rate}"), "ms", &latencies);
        if rung == 0 {
            out.ops_per_s = latencies.len() as f64 / wall_s;
            out.op_ms = latencies.clone();
        }
        if !saturated && failed == 0 && !latencies.is_empty() && p99(&latencies) <= LATENCY_LIMIT_MS
        {
            max_rate = rate;
        }
    }
    out.value("max_rate_rps", "1/s", max_rate);
    out.samples("loadgen.lateness_ms", "ms", &lateness);
    drop(conns);
    if trace::enabled() {
        decompose(st, &first_rung, out);
    }
    serve_counters(st, out);
    Ok(())
}

/// Closed loop over two binary connections.
fn bulk(ctx: &Ctx, st: &Setup, out: &mut Outcome) -> Result<(), String> {
    let mut conns = [connect(st, false)?, connect(st, false)?];
    let pick = |c: usize, seq: usize| {
        Rng::derive(ctx.seed, ((c as u64) << 32) | seq as u64).below(st.pool.len())
    };
    let start = Instant::now();
    let logs = closed_loop(
        &mut conns,
        Duration::from_secs_f64(ctx.seconds),
        |conn, c, seq| {
            let i = pick(c, seq);
            (i, conn.featurize(&st.pool[i].0))
        },
        |(i, reply)| st.check(Req::Ext(i), reply),
    );
    let wall_s = start.elapsed().as_secs_f64();
    for rec in logs.iter().flatten() {
        out.attempted += 1;
        out.op_ms.push(rec.latency_ms);
        if let Err(e) = &rec.result {
            out.fail(e.clone());
        }
    }
    out.ops_per_s = out.op_ms.len() as f64 / wall_s;
    out.value("rows_per_s", "1/s", out.ops_per_s * BULK_ROWS as f64);
    drop(conns);
    if trace::enabled() {
        let requests: Vec<(Req, bool)> = (0..DECOMPOSE)
            .map(|seq| (Req::Ext(pick(0, seq)), false))
            .collect();
        decompose(st, &requests, out);
    }
    serve_counters(st, out);
    Ok(())
}

enum Reply {
    Read(Req, Result<FeatResponse, String>),
    Append(Result<(u16, String), String>),
}

/// Point reads on the binary connection beside appends over HTTP. `op_ms`
/// is the append latency; the reads are checked against a local replica
/// that applies the same appends in the same order.
fn append(ctx: &Ctx, mut st: Setup, out: &mut Outcome) -> Result<(), String> {
    let mut conns = [connect(&st, false)?, connect(&st, true)?];
    let mut rng = Rng::derive(ctx.seed, 0xa9);
    let mut plans: [Vec<Arrival<Req>>; 2] = Default::default();
    for due in poisson_schedule(&mut rng, 20.0, ctx.seconds) {
        let request = st.point_request(&mut rng);
        plans[0].push(Arrival { due, request });
    }
    let appends = ((ctx.seconds * APPEND_RATE) as usize).clamp(1, st.held_out.len() / APPEND_ROWS);
    plans[1] = (0..appends)
        .map(|k| Arrival {
            due: (k as f64 + 0.5) / APPEND_RATE,
            request: Req::Append(k),
        })
        .collect();
    let start = Instant::now();
    let logs = open_loop(
        &mut conns,
        &plans,
        ABORT_BEHIND,
        |conn, &req| match (req, conn) {
            (Req::Append(k), Conn::Http(http)) => {
                Reply::Append(http.post("/admin/append", &st.append_body(k)))
            }
            (req, conn) => Reply::Read(req, st.with_request(req, |r| conn.featurize(r))),
        },
        |reply| reply,
    );
    let wall_s = start.elapsed().as_secs_f64();
    // A backlog is a measurement, not an error: the requests it kept from
    // being sent were never attempted.
    let saturated = logs.iter().any(|l| l.saturated);
    out.value("loadgen.saturated", "count", f64::from(u8::from(saturated)));

    // Appends: each publishes the next version.
    let mut stamps: BTreeMap<u64, u32> = BTreeMap::from([(1, st.checksum)]);
    let mut slots = Vec::new();
    let mut retrofit = Vec::new();
    for (k, rec) in logs[1].records.iter().enumerate() {
        out.attempted += 1;
        out.op_ms.push(rec.latency_ms);
        let Reply::Append(reply) = &rec.result else {
            continue;
        };
        let parsed = reply
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|(status, body)| {
                let doc = Json::parse(body)?;
                let num = |k: &str| doc.get(k).and_then(Json::as_f64);
                match (status, num("version"), num("checksum")) {
                    (200, Some(v), Some(c)) => Ok((v as u64, c as u32, doc)),
                    _ => Err(format!("append {k}: HTTP {status}: {body}")),
                }
            });
        match parsed {
            Ok((version, checksum, doc)) if version == k as u64 + 2 => {
                stamps.insert(version, checksum);
                slots.extend(doc.get("featurizer_slots_patched").and_then(Json::as_f64));
                retrofit.extend(
                    doc.get("retrofit")
                        .and_then(|r| r.get("updated"))
                        .and_then(Json::as_f64),
                );
            }
            Ok((version, ..)) => out.fail(format!("append {k} published version {version}")),
            Err(e) => out.fail(e),
        }
    }
    let applied = stamps.len() - 1;
    out.ops_per_s = applied as f64 / wall_s;

    // Reads, grouped by the version that served them.
    let mut reads: BTreeMap<u64, Vec<(Req, FeatResponse)>> = BTreeMap::new();
    let mut read_ms = Vec::new();
    for rec in logs.into_iter().next().map_or(Vec::new(), |l| l.records) {
        out.attempted += 1;
        read_ms.push(rec.latency_ms);
        match rec.result {
            Reply::Read(req, Ok(resp)) => reads.entry(resp.version).or_default().push((req, resp)),
            Reply::Read(req, Err(e)) => out.fail(format!("{req:?}: {e}")),
            Reply::Append(_) => {}
        }
    }

    // Replay the appends on the local replica, one version at a time.
    let mut local = st.local.take().ok_or("append replica missing")?;
    for version in 1..=applied as u64 + 1 {
        if version >= 2 {
            let k = version as usize - 2;
            local
                .append_rows(&st.base, st.append_rows(k))
                .map_err(|e| e.to_string())?;
            if crc_of(&local) != stamps[&version] {
                out.fail(format!(
                    "version {version} checksum differs from the local replica's"
                ));
            }
        }
        for (req, resp) in reads.remove(&version).unwrap_or_default() {
            let expected = st.with_request(req, |r| local.featurize(r));
            let ok = resp.checksum == stamps[&version]
                && expected.is_ok_and(|x| same_bits(&x, &resp.matrix));
            if !ok {
                out.fail(format!(
                    "{req:?} at version {version} differs from the local replica"
                ));
            }
        }
    }
    for (version, rs) in reads {
        out.failed += rs.len() as u64;
        out.failures.push(format!(
            "{} reads stamped unknown version {version}",
            rs.len()
        ));
    }
    // The final served features of the appended rows equal the replica's.
    let appended: Vec<usize> = (st.base_rows..st.base_rows + applied * APPEND_ROWS).collect();
    if !appended.is_empty() {
        let probe = row_plus_value(RowSource::BaseRows(appended));
        out.attempted += 1;
        let served = conns[0].featurize(&probe);
        let expected = local.featurize(&probe).map_err(|e| e.to_string())?;
        if !served.is_ok_and(|r| same_bits(&r.matrix, &expected)) {
            out.fail("final served features of the appended rows differ from the replica's");
        }
    }

    out.samples("read_latency_ms", "ms", &read_ms);
    if let Some((first, rest)) = out.op_ms.clone().split_first() {
        out.value("delta.first_append_ms", "ms", *first);
        out.samples("delta.append_ms", "ms", rest);
    }
    out.samples("delta.slots_patched", "count", &slots);
    out.samples("delta.retrofit_nodes", "count", &retrofit);
    drop(conns);
    if trace::enabled() {
        let served = st.server.engine().current_model();
        for i in 0..5 {
            trace::root("op.clone", i, || {
                drop(trace::span("model.clone", || served.model.clone()));
            });
        }
        let requests: Vec<(Req, bool)> = plans[0]
            .iter()
            .take(DECOMPOSE)
            .map(|a| (a.request, false))
            .collect();
        decompose(&st, &requests, out);
    }
    serve_counters(&st, out);
    Ok(())
}

/// Re-runs requests in process, one layer at a time: the server's wire
/// decode, `Engine::submit` (queue + coalesce + compute), the bare
/// `LevaModel::featurize`, and the server's wire encode.
fn decompose(st: &Setup, requests: &[(Req, bool)], out: &mut Outcome) {
    let engine = st.server.engine();
    let served = engine.current_model();
    for (i, &(req, http)) in requests.iter().enumerate() {
        trace::root("op.wire", i as u64, || {
            st.with_request(req, |r| -> Result<(), String> {
                let decoded = if http {
                    let body = trace::span("bench.client_encode", || json_request(r));
                    trace::span("serve.decode", || wire::parse_json_request(&body))
                } else {
                    let bytes =
                        trace::span("bench.client_encode", || wire::encode_binary_request(r));
                    trace::span("serve.decode", || wire::decode_binary_request(&bytes))
                }
                .map_err(|e| e.to_string())?;
                let resp = trace::span("serve.engine", || engine.submit(decoded))
                    .map_err(|e| e.to_string())?;
                drop(trace::span("featurize", || served.model.featurize(r)));
                if http {
                    let text = trace::span("serve.encode", || wire::write_json_response(&resp));
                    trace::span("bench.client_decode", || parse_json_response(&text))?;
                } else {
                    let bytes =
                        trace::span("serve.encode", || wire::encode_binary_response(&Ok(resp)));
                    trace::span("bench.client_decode", || {
                        wire::decode_binary_response(&bytes)
                    })
                    .map_err(|e| e.to_string())?;
                }
                Ok(())
            })
        })
        .unwrap_or_else(|e| out.fail(format!("in-process decomposition: {e}")));
    }

    let trees = trace_trees();
    let median = |span| median_self_ms(&trees, span).unwrap_or(0.0);
    let client_ms = match out.metrics.iter().find(|m| m.0 == "read_latency_ms") {
        Some((_, _, s)) => s.median,
        None if !out.op_ms.is_empty() => Summary::of(&out.op_ms).median,
        None => return,
    };
    let (engine_ms, encode_ms, decode_ms) = (
        median("serve.engine"),
        median("serve.encode"),
        median("serve.decode"),
    );
    // Derived: what the client waited for beyond the server's own work.
    out.value(
        "serve.wire_wait_us",
        "us",
        (client_ms - engine_ms - encode_ms - decode_ms) * 1e3,
    );
    // The server's own work per request: wire decode, engine (which runs
    // the featurize), wire encode.
    let server_ms = decode_ms + engine_ms + encode_ms;
    out.value(
        "serve.featurize_encode_share_pct",
        "%",
        100.0 * (median("featurize") + encode_ms) / server_ms.max(1e-9),
    );
}

/// Model sizes and the engine's own coalescing counter.
fn serve_counters(st: &Setup, out: &mut Outcome) {
    use std::sync::atomic::Ordering;
    out.value("graph.nodes", "count", st.counts.0 as f64);
    out.value("graph.edges", "count", st.counts.1 as f64);
    out.value("featurizer.cache_mb", "MB", st.counts.2);
    let m = st.server.engine().metrics();
    let batches = m.batches.load(Ordering::Relaxed);
    if batches > 0 {
        out.value(
            "serve.batch_rows_mean",
            "count",
            m.rows.load(Ordering::Relaxed) as f64 / batches as f64,
        );
    }
}

/// Nearest-rank 99th percentile.
fn p99(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[((0.99 * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1]
}

/// CRC-32 of a model's artifact bytes: the stamp the server puts on every
/// response from it.
fn crc_of(model: &LevaModel) -> u32 {
    struct Sink(Crc32);
    impl std::io::Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.update(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut sink = Sink(Crc32::new());
    model
        .save_to(&mut sink)
        .expect("hashing sink cannot fail and encoding is infallible");
    sink.0.finish()
}
