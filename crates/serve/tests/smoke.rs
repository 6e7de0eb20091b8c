//! End-to-end server smoke test: ephemeral port, JSON + binary protocol
//! round-trips, `/metrics` scrape, concurrent clients, mid-load hot swap,
//! and clean shutdown; plus loopback latency and slow-client bounds.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use leva::{Featurization, FeaturizeRequest, Leva, LevaConfig, LevaModel};
use leva_interner::codec::crc32;
use leva_linalg::Matrix;
use leva_relational::{Database, Table, Value};
use leva_serve::json;
use leva_serve::{wire, Engine, ModelHandle, ServeConfig, Server, ServingModel};

fn db(rows: usize, scale: f64) -> Database {
    let mut db = Database::new();
    let mut base = Table::new("base", vec!["id", "grp", "amount", "target"]);
    let mut aux = Table::new("aux", vec!["id", "tag"]);
    for i in 0..rows {
        base.push_row(vec![
            format!("e{i}").into(),
            ["a", "b", "c"][i % 3].into(),
            Value::Float(i as f64 * scale),
            Value::Int((i % 2) as i64),
        ])
        .unwrap();
        aux.push_row(vec![format!("e{i}").into(), format!("t{}", i % 5).into()])
            .unwrap();
    }
    db.add_table(base).unwrap();
    db.add_table(aux).unwrap();
    db
}

fn fit(database: &Database) -> LevaModel {
    Leva::with_config(LevaConfig::fast())
        .base_table("base")
        .target("target")
        .fit(database)
        .unwrap()
}

/// Minimal HTTP/1.1 client: one request per connection.
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: leva\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(body).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let text_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head/body separator");
    let head = std::str::from_utf8(&raw[..text_end]).unwrap();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .unwrap();
    (status, raw[text_end + 4..].to_vec())
}

fn json_body(addr: SocketAddr, path: &str, body: &str) -> (u16, json::Value) {
    let (status, bytes) = http(addr, "POST", path, body.as_bytes());
    let doc = json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
    (status, doc)
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, json::Value) {
    let (status, bytes) = http(addr, "GET", path, b"");
    let doc = json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
    (status, doc)
}

/// Asserts a JSON `data` array matches a matrix bitwise.
fn assert_json_matches(doc: &json::Value, want: &Matrix) {
    assert_eq!(doc.get("rows").unwrap().as_f64(), Some(want.rows() as f64));
    assert_eq!(doc.get("cols").unwrap().as_f64(), Some(want.cols() as f64));
    let data = doc.get("data").unwrap().as_array().unwrap();
    assert_eq!(data.len(), want.rows());
    for (r, row) in data.iter().enumerate() {
        let row = row.as_array().unwrap();
        assert_eq!(row.len(), want.cols());
        for (c, cell) in row.iter().enumerate() {
            let got = cell.as_f64_or_null().unwrap();
            let exp = want.row(r)[c];
            assert_eq!(got.to_bits(), exp.to_bits(), "cell ({r},{c})");
        }
    }
}

#[test]
fn server_smoke() {
    let model_a = fit(&db(24, 1.0));
    let model_b = fit(&db(24, 3.5));
    let bytes_b = model_b.to_bytes();
    let sum_a = crc32(&model_a.to_bytes());
    let sum_b = crc32(&bytes_b);
    assert_ne!(sum_a, sum_b);

    let probe = FeaturizeRequest::base_rows(vec![0, 5, 11], Featurization::RowOnly);
    let expect_a = model_a.featurize(&probe).unwrap();
    let expect_b = model_b.featurize(&probe).unwrap();

    let config = ServeConfig::default().with_addr("127.0.0.1:0");
    let engine = Engine::new(model_a, config).unwrap();
    let mut server = Server::start(Arc::clone(&engine)).unwrap();
    let addr = server.local_addr();

    // --- health + 404 ----------------------------------------------
    let (status, doc) = get_json(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
    let (status, _) = get_json(addr, "/nope");
    assert_eq!(status, 404);

    // --- JSON round-trip -------------------------------------------
    let (status, doc) = json_body(
        addr,
        "/featurize",
        r#"{"feat":"row","source":{"base_rows":[0,5,11]}}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(doc.get("version").unwrap().as_f64(), Some(1.0));
    assert_eq!(doc.get("checksum").unwrap().as_f64(), Some(sum_a as f64));
    assert_json_matches(&doc, &expect_a);

    // Malformed bodies are a 400 with an error envelope.
    let (status, doc) = json_body(addr, "/featurize", r#"{"feat":"nope"}"#);
    assert_eq!(status, 400);
    assert!(doc.get("error").is_some());

    // --- binary round-trip -----------------------------------------
    let mut bin = TcpStream::connect(addr).unwrap();
    bin.write_all(&wire::BINARY_MAGIC).unwrap();
    for _ in 0..2 {
        // Two requests on one session exercises frame reuse.
        let payload = wire::encode_binary_request(&probe);
        wire::write_frame(&mut bin, &payload).unwrap();
        let frame = wire::read_frame(&mut bin, 1 << 24).unwrap();
        let resp = wire::decode_binary_response(&frame).unwrap();
        assert_eq!(resp.version, 1);
        assert_eq!(resp.checksum, sum_a);
        assert_eq!(resp.matrix.rows(), expect_a.rows());
        for r in 0..expect_a.rows() {
            for (x, y) in resp.matrix.row(r).iter().zip(expect_a.row(r)) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
    drop(bin);

    // --- concurrent clients: every response is served and stamped --
    let mut clients = Vec::new();
    for t in 0..8 {
        let body = if t % 2 == 0 {
            r#"{"feat":"row","source":{"base_rows":[0,5,11]}}"#
        } else {
            r#"{"feat":"row","source":{"base_rows":[3,4]}}"#
        };
        clients.push(std::thread::spawn(move || {
            for _ in 0..6 {
                let (status, doc) = json_body(addr, "/featurize", body);
                assert_eq!(status, 200);
                assert!(doc.get("error").is_none());
                assert_eq!(doc.get("checksum").unwrap().as_f64(), Some(sum_a as f64));
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }

    // --- /metrics scrape -------------------------------------------
    // 52 featurize responses went out: two JSON (one a 400), two binary
    // and 48 concurrent. A server thread records its write just after the
    // client has the bytes, so poll until the last records land.
    let scrape_deadline = Instant::now() + Duration::from_secs(5);
    let m = loop {
        let (status, m) = get_json(addr, "/metrics");
        assert_eq!(status, 200);
        let writes = m.get("write_us").unwrap().get("count").unwrap().as_f64();
        if writes == Some(52.0) || Instant::now() > scrape_deadline {
            break m;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let writes = m.get("write_us").unwrap();
    assert_eq!(writes.get("count").unwrap().as_f64(), Some(52.0));
    assert!(writes.get("p50").unwrap().as_f64().unwrap() > 0.0);
    assert!(writes.get("p99").unwrap().as_f64().unwrap() > 0.0);
    let requests = m.get("requests").unwrap().as_f64().unwrap();
    assert!(requests >= 51.0, "requests={requests}");
    assert_eq!(
        m.get("latency_us").unwrap().get("count").unwrap().as_f64(),
        Some(requests)
    );
    let batches = m.get("batches").unwrap().as_f64().unwrap();
    assert!(batches >= 1.0 && batches <= requests, "batches={batches}");
    assert!(
        m.get("latency_us")
            .unwrap()
            .get("p50")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    assert!(
        m.get("latency_us")
            .unwrap()
            .get("p99")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    assert!(m.get("rows_per_s").unwrap().as_f64().unwrap() > 0.0);
    assert!(m.get("cache_bytes").unwrap().as_f64().unwrap() > 0.0);
    let model_info = m.get("model").unwrap();
    assert_eq!(model_info.get("version").unwrap().as_f64(), Some(1.0));
    assert_eq!(
        model_info.get("checksum").unwrap().as_f64(),
        Some(sum_a as f64)
    );
    // Discovery telemetry: this model was fitted with discovery off, so
    // the config and injection counters all read zero/false.
    let disc = m.get("discovery").unwrap();
    assert_eq!(disc.get("enabled").unwrap().as_bool(), Some(false));
    assert_eq!(disc.get("relationships").unwrap().as_f64(), Some(0.0));
    assert_eq!(disc.get("edges_added").unwrap().as_f64(), Some(0.0));
    assert_eq!(disc.get("value_nodes_added").unwrap().as_f64(), Some(0.0));
    let disc_before_swap = format!("{disc:?}");

    // --- hot swap over HTTP ----------------------------------------
    let (status, doc) = http_swap(addr, &bytes_b);
    assert_eq!(status, 200);
    assert_eq!(doc.get("version").unwrap().as_f64(), Some(2.0));
    assert_eq!(doc.get("checksum").unwrap().as_f64(), Some(sum_b as f64));

    let (status, doc) = json_body(
        addr,
        "/featurize",
        r#"{"feat":"row","source":{"base_rows":[0,5,11]}}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(doc.get("version").unwrap().as_f64(), Some(2.0));
    assert_eq!(doc.get("checksum").unwrap().as_f64(), Some(sum_b as f64));
    assert_json_matches(&doc, &expect_b);

    // A corrupt artifact is rejected with 409 and serving continues.
    let mut corrupt = bytes_b.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    let (status, doc) = http_swap(addr, &corrupt);
    assert_eq!(status, 409);
    assert!(doc.get("error").is_some());
    let (status, doc) = json_body(
        addr,
        "/featurize",
        r#"{"feat":"row","source":{"base_rows":[0,5,11]}}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(doc.get("version").unwrap().as_f64(), Some(2.0));
    let (_, m) = get_json(addr, "/metrics");
    assert_eq!(m.get("swaps").unwrap().as_f64(), Some(1.0));
    assert_eq!(m.get("swaps_rejected").unwrap().as_f64(), Some(1.0));
    // The discovery block is a pure function of the active model's
    // artifact, so it survives the hot swap bitwise-unchanged (both
    // fixture models are fitted with discovery off).
    assert_eq!(
        format!("{:?}", m.get("discovery").unwrap()),
        disc_before_swap
    );

    // --- clean shutdown --------------------------------------------
    let (status, doc) = json_body(addr, "/admin/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("stopping"));
    server.shutdown();
    assert!(server.is_stopping());
    // Further submits through the engine are refused.
    assert!(engine
        .submit(FeaturizeRequest::base_all(Featurization::RowOnly))
        .is_err());
}

fn http_swap(addr: SocketAddr, artifact: &[u8]) -> (u16, json::Value) {
    let (status, bytes) = http(addr, "POST", "/admin/swap", artifact);
    let doc = json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
    (status, doc)
}

/// Sends a raw, pre-formatted request head + body and returns the status.
fn raw_status(addr: SocketAddr, head: &str, body: &[u8]) -> u16 {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(body).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let text = std::str::from_utf8(&raw[..raw.len().min(64)]).unwrap();
    text.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn conflicting_content_length_headers_are_rejected() {
    let model = fit(&db(12, 1.0));
    let config = ServeConfig::default().with_addr("127.0.0.1:0");
    let engine = Engine::new(model, config).unwrap();
    let mut server = Server::start(Arc::clone(&engine)).unwrap();
    let addr = server.local_addr();

    let body = br#"{"feat":"row","source":{"base_rows":[0]}}"#;

    // Two content-length headers that disagree: a smuggling-shaped
    // request. Last-wins would read 0 body bytes and leave the body to
    // be parsed as a second request — it must be a 400 instead.
    let head = format!(
        "POST /featurize HTTP/1.1\r\nhost: leva\r\ncontent-length: {}\r\n\
         content-length: 0\r\nconnection: close\r\n\r\n",
        body.len()
    );
    assert_eq!(raw_status(addr, &head, body), 400);

    // Identical repeats are tolerated (RFC 9112 permits folding them).
    let head = format!(
        "POST /featurize HTTP/1.1\r\nhost: leva\r\ncontent-length: {n}\r\n\
         content-length: {n}\r\nconnection: close\r\n\r\n",
        n = body.len()
    );
    assert_eq!(raw_status(addr, &head, body), 200);

    // The server survives the rejected request and keeps serving.
    let (status, _) = get_json(addr, "/healthz");
    assert_eq!(status, 200);

    engine.shutdown();
    server.shutdown();
}

/// A body of 100,000 nested `[` once overflowed the connection thread's
/// stack in the JSON parser and aborted the daemon. It is a 400 now, and
/// the server keeps serving.
#[test]
fn deeply_nested_json_is_a_400_and_the_server_survives() {
    let model = fit(&db(12, 1.0));
    let config = ServeConfig::default().with_addr("127.0.0.1:0");
    let engine = Engine::new(model, config).unwrap();
    let mut server = Server::start(Arc::clone(&engine)).unwrap();
    let addr = server.local_addr();

    let (status, _) = http(addr, "POST", "/featurize", "[".repeat(100_000).as_bytes());
    assert_eq!(status, 400);
    let (status, _) = get_json(addr, "/healthz");
    assert_eq!(status, 200);

    engine.shutdown();
    server.shutdown();
}

#[test]
fn external_tables_round_trip_through_json() {
    let database = db(24, 1.0);
    let model = fit(&database);
    let external = database
        .table("base")
        .unwrap()
        .drop_columns(&["target"])
        .unwrap();
    let want = model
        .featurize(&FeaturizeRequest::external(
            external.clone(),
            Featurization::RowOnly,
        ))
        .unwrap();

    let engine = Engine::new(model, ServeConfig::default().with_addr("127.0.0.1:0")).unwrap();
    let mut server = Server::start(Arc::clone(&engine)).unwrap();
    let addr = server.local_addr();

    // Build the JSON request from the first three external rows.
    let mut body = String::from(r#"{"feat":"row","source":{"external":{"columns":["#);
    let cols = external.column_names();
    for (i, c) in cols.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        json::write_string(&mut body, c);
    }
    body.push_str(r#"],"rows":["#);
    for r in 0..3 {
        if r > 0 {
            body.push(',');
        }
        body.push('[');
        for (c, v) in external.row(r).unwrap().iter().enumerate() {
            if c > 0 {
                body.push(',');
            }
            match v {
                Value::Null => body.push_str("null"),
                Value::Int(x) => body.push_str(&x.to_string()),
                Value::Float(x) => json::write_f64(&mut body, *x),
                Value::Text(s) => json::write_string(&mut body, s),
                Value::Bool(b) => body.push_str(if *b { "true" } else { "false" }),
                Value::Timestamp(x) => body.push_str(&x.to_string()),
            }
        }
        body.push(']');
    }
    body.push_str("]}}}");

    let (status, doc) = json_body(addr, "/featurize", &body);
    assert_eq!(status, 200, "body: {body}");
    let data = doc.get("data").unwrap().as_array().unwrap();
    assert_eq!(data.len(), 3);
    for (r, row) in data.iter().enumerate() {
        for (c, cell) in row.as_array().unwrap().iter().enumerate() {
            assert_eq!(
                cell.as_f64_or_null().unwrap().to_bits(),
                want.row(r)[c].to_bits(),
                "cell ({r},{c})"
            );
        }
    }
    server.shutdown();
}

#[test]
fn admin_append_patches_the_served_model() {
    let model = fit(&db(24, 1.0));
    let expected = {
        let mut fresh = model.clone();
        fresh
            .append_rows("base", &[vec!["e24".into(), "a".into(), Value::Float(3.0)]])
            .unwrap();
        fresh
            .featurize(&FeaturizeRequest::base_rows(
                vec![24],
                Featurization::RowOnly,
            ))
            .unwrap()
    };

    let config = ServeConfig::default().with_addr("127.0.0.1:0");
    let engine = Engine::new(model, config).unwrap();
    let mut server = Server::start(Arc::clone(&engine)).unwrap();
    let addr = server.local_addr();

    // A row past the fitted range is a 400 before the append lands.
    let (status, _) = json_body(
        addr,
        "/featurize",
        r#"{"feat":"row","source":{"base_rows":[24]}}"#,
    );
    assert_eq!(status, 400);

    // Append one row through the admin endpoint.
    let (status, doc) = json_body(
        addr,
        "/admin/append",
        r#"{"table":"base","rows":[["e24","a",3.0]]}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(doc.get("version").unwrap().as_f64(), Some(2.0));
    assert_eq!(doc.get("rows_appended").unwrap().as_f64(), Some(1.0));
    let retrofit = doc.get("retrofit").unwrap();
    assert!(retrofit.get("updated").unwrap().as_f64().unwrap() >= 1.0);

    // The appended row now featurizes, bitwise equal to the library path.
    let (status, doc) = json_body(
        addr,
        "/featurize",
        r#"{"feat":"row","source":{"base_rows":[24]}}"#,
    );
    assert_eq!(status, 200, "appended row should serve");
    assert_eq!(doc.get("version").unwrap().as_f64(), Some(2.0));
    assert_json_matches(&doc, &expected);

    // Unknown tables are rejected without disturbing the served model.
    let (status, doc) = json_body(addr, "/admin/append", r#"{"table":"ghost","rows":[["x"]]}"#);
    assert_eq!(status, 400);
    assert!(doc.get("error").is_some());
    let (status, _) = json_body(
        addr,
        "/featurize",
        r#"{"feat":"row","source":{"base_rows":[24]}}"#,
    );
    assert_eq!(status, 200);

    // Metrics report the append counters.
    let (status, doc) = get_json(addr, "/metrics");
    assert_eq!(status, 200);
    let appends = doc.get("appends").unwrap();
    assert_eq!(appends.get("applied").unwrap().as_f64(), Some(1.0));
    assert_eq!(appends.get("rejected").unwrap().as_f64(), Some(1.0));
    assert_eq!(appends.get("rows").unwrap().as_f64(), Some(1.0));
    // One sample per phase for the applied append; the rejected one
    // records none.
    for phase in ["clone_us", "apply_us", "stamp_us", "install_us"] {
        let hist = appends
            .get(phase)
            .unwrap_or_else(|| panic!("{phase} missing"));
        assert_eq!(hist.get("count").unwrap().as_f64(), Some(1.0), "{phase}");
        assert!(hist.get("p50").unwrap().as_f64().unwrap() >= 1.0, "{phase}");
    }

    server.shutdown();
}

/// A swap encodes, hashes and warms its replacement before taking the
/// write lock, so readers pinning the current model never wait for it.
#[test]
fn readers_do_not_wait_for_a_swap_to_prepare() {
    let handle = Arc::new(ModelHandle::new(ServingModel::prepare(fit(&db(12, 1.0)))));
    let next = fit(&db(12, 2.0));
    let (version, _) = handle.swap_with(|| {
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = Arc::clone(&handle);
        std::thread::spawn(move || tx.send(reader.current().version));
        let seen = rx
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("handle.current() blocked while the swap prepared");
        assert_eq!(seen, 1);
        ServingModel::prepare(next)
    });
    assert_eq!(version, 2);
    assert_eq!(handle.current().version, 2);
}

/// Median of `runs` timed calls, in milliseconds.
fn median_ms(runs: usize, mut call: impl FnMut()) -> f64 {
    let mut ms: Vec<f64> = (0..runs)
        .map(|_| {
            let started = Instant::now();
            call();
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[runs / 2]
}

/// Back-to-back 1-row requests on one binary and one HTTP keep-alive
/// connection, with `TCP_NODELAY` on the client as real clients set it.
/// A response sent as two writes from a socket without `TCP_NODELAY`
/// holds its second part until the client's delayed ACK, about 40 ms.
#[test]
fn point_requests_do_not_stall_on_loopback() {
    let model = fit(&db(24, 1.0));
    let engine = Engine::new(model, ServeConfig::default().with_addr("127.0.0.1:0")).unwrap();
    let mut server = Server::start(Arc::clone(&engine)).unwrap();
    let addr = server.local_addr();

    let mut bin = TcpStream::connect(addr).unwrap();
    bin.set_nodelay(true).unwrap();
    bin.write_all(&wire::BINARY_MAGIC).unwrap();
    let payload = wire::encode_binary_request(&FeaturizeRequest::base_rows(
        vec![3],
        Featurization::RowOnly,
    ));
    let binary_ms = median_ms(20, || {
        wire::write_frame(&mut bin, &payload).unwrap();
        let frame = wire::read_frame(&mut bin, 1 << 20).unwrap();
        assert_eq!(
            wire::decode_binary_response(&frame).unwrap().matrix.rows(),
            1
        );
    });

    let mut writer = TcpStream::connect(addr).unwrap();
    writer.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let body = r#"{"feat":"row","source":{"base_rows":[3]}}"#;
    let request = format!(
        "POST /featurize HTTP/1.1\r\nhost: leva\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let http_ms = median_ms(20, || {
        writer.write_all(request.as_bytes()).unwrap();
        let mut content_length = 0;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.trim_end().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        assert!(body.starts_with(b"{"));
    });

    assert!(
        binary_ms < 15.0,
        "binary median round trip {binary_ms:.2} ms"
    );
    assert!(http_ms < 15.0, "HTTP median round trip {http_ms:.2} ms");
    server.shutdown();
}

/// Status of a `GET /healthz`, or `None` if the connection broke first (a
/// refused connection may be reset before its 503 is read).
fn try_healthz(addr: SocketAddr) -> Option<u16> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: leva\r\nconnection: close\r\n\r\n")
        .ok()?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).ok()?;
    std::str::from_utf8(&raw)
        .ok()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Clients that connect and send nothing, or half a head, hold their
/// connection slots only until a deadline passes; then a waiting client
/// is served.
#[test]
fn stalled_clients_time_out_and_free_their_slots() {
    let started = Instant::now();
    let config = ServeConfig {
        max_connections: 2,
        ..ServeConfig::default().with_addr("127.0.0.1:0")
    };
    let engine = Engine::new(fit(&db(12, 1.0)), config).unwrap();
    let mut server = Server::start(Arc::clone(&engine)).unwrap();
    let addr = server.local_addr();

    let silent = TcpStream::connect(addr).unwrap();
    let mut half = TcpStream::connect(addr).unwrap();
    half.write_all(b"POST /featurize HTTP/1.1\r\nhost: le")
        .unwrap();
    // The acceptor takes connections in order, so both slots are held by
    // the time it reaches this one.
    assert_ne!(try_healthz(addr), Some(200), "a third client got a slot");

    let limit = Duration::from_secs(30);
    while try_healthz(addr) != Some(200) {
        assert!(
            started.elapsed() < limit,
            "stalled clients still hold every slot"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
    assert!(started.elapsed() < limit);
    drop((silent, half));
    server.shutdown();
}
