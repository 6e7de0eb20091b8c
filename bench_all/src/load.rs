//! Load generation over the wire: the two protocol clients, the seeded
//! open-loop Poisson scheduler, and the closed-loop driver.
//!
//! Open loop: requests are due on a schedule regardless of how the server
//! keeps up; each is timed from when it was *due*, so a stall also charges
//! the requests queued behind it. Closed loop: each connection sends its
//! next request as soon as the previous reply is decoded.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use leva::{Featurization, FeaturizeRequest, RowSource};
use leva_linalg::Matrix;
use leva_relational::Value;
use leva_serve::{wire, FeatResponse};

use crate::gen::Rng;
use crate::report::{num, quote, Json};

const MAX_FRAME: usize = 1 << 30;

/// A binary-protocol connection.
pub struct BinaryClient {
    stream: TcpStream,
}

impl BinaryClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&wire::BINARY_MAGIC)?;
        Ok(BinaryClient { stream })
    }

    pub fn featurize(&mut self, request: &FeaturizeRequest) -> Result<FeatResponse, String> {
        let payload = wire::encode_binary_request(request);
        let mut frame = Vec::with_capacity(payload.len() + 4);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.stream.write_all(&frame).map_err(|e| e.to_string())?;
        let reply = wire::read_frame(&mut self.stream, MAX_FRAME).map_err(|e| e.to_string())?;
        wire::decode_binary_response(&reply).map_err(|e| e.to_string())
    }
}

/// An HTTP/1.1 keep-alive connection speaking the JSON protocol.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(HttpClient {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// POSTs `body` to `path`; returns the status and response body.
    pub fn post(&mut self, path: &str, body: &str) -> Result<(u16, String), String> {
        let request = format!(
            "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut length = 0usize;
        loop {
            let mut header = String::new();
            self.reader
                .read_line(&mut header)
                .map_err(|e| e.to_string())?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| "bad content-length")?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| e.to_string())?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|e| e.to_string())
    }

    pub fn featurize(&mut self, request: &FeaturizeRequest) -> Result<FeatResponse, String> {
        let (status, body) = self.post("/featurize", &json_request(request))?;
        if status != 200 {
            return Err(format!("HTTP {status}: {body}"));
        }
        parse_json_response(&body)
    }
}

/// Renders a request in the JSON protocol (the client side of
/// `wire::parse_json_request`).
pub fn json_request(request: &FeaturizeRequest) -> String {
    let feat = match request.feat {
        Featurization::RowOnly => "row",
        Featurization::RowPlusValue => "row_plus_value",
    };
    let source = match &request.source {
        RowSource::BaseAll => "\"base_all\"".to_owned(),
        RowSource::BaseRows(rows) => {
            let rows: Vec<String> = rows.iter().map(usize::to_string).collect();
            format!("{{\"base_rows\": [{}]}}", rows.join(","))
        }
        RowSource::External(table) => {
            let columns: Vec<String> = table.column_names().iter().map(|c| quote(c)).collect();
            let rows: Vec<String> = (0..table.row_count())
                .map(|r| {
                    let cells: Vec<String> = table
                        .row(r)
                        .expect("row index within the table")
                        .iter()
                        .map(json_cell)
                        .collect();
                    format!("[{}]", cells.join(","))
                })
                .collect();
            format!(
                "{{\"external\": {{\"columns\": [{}], \"rows\": [{}]}}}}",
                columns.join(","),
                rows.join(",")
            )
        }
    };
    format!("{{\"feat\": \"{feat}\", \"source\": {source}}}")
}

/// One relational cell as a JSON value.
pub fn json_cell(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Int(x) => x.to_string(),
        Value::Float(x) => num(*x),
        Value::Timestamp(x) => x.to_string(),
        Value::Text(s) => quote(s),
    }
}

/// Parses a JSON-protocol featurize response (the client side of
/// `wire::write_json_response`).
pub fn parse_json_response(body: &str) -> Result<FeatResponse, String> {
    let doc = Json::parse(body)?;
    let field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("response lacks {k:?}"))
    };
    let (rows, cols) = (field("rows")? as usize, field("cols")? as usize);
    let mut matrix = Matrix::zeros(rows, cols);
    let data = doc
        .get("data")
        .and_then(Json::as_arr)
        .ok_or("response lacks \"data\"")?;
    if data.len() != rows {
        return Err("response row count disagrees with \"rows\"".into());
    }
    for (r, row) in data.iter().enumerate() {
        let row = row.as_arr().filter(|v| v.len() == cols).ok_or("bad row")?;
        for (out, x) in matrix.row_mut(r).iter_mut().zip(row) {
            *out = x.as_f64().ok_or("non-numeric feature")?;
        }
    }
    Ok(FeatResponse {
        version: field("version")? as u64,
        checksum: field("checksum")? as u32,
        matrix,
    })
}

/// `n` arrival times (seconds from the rung's start) of a Poisson process
/// over `duration`: `n` uniform points, sorted — the Poisson process
/// conditioned on its count, so every seed offers exactly the same load.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let n = (rate * duration).round() as usize;
    let mut due: Vec<f64> = (0..n).map(|_| rng.f64() * duration).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// One request a connection sends on an open-loop schedule.
pub struct Arrival<R> {
    pub due: f64,
    pub request: R,
}

/// What happened to one request.
pub struct Record<T> {
    /// Due time → reply decoded.
    pub latency_ms: f64,
    /// How far past its due time the generator woke to send it, when the
    /// connection was idle (a validity check on the generator itself).
    pub lateness_ms: Option<f64>,
    pub result: T,
}

/// Per-connection open-loop results.
pub struct OpenLog<T> {
    pub records: Vec<Record<T>>,
    /// True when the connection fell more than the abort threshold behind
    /// its schedule and stopped sending: a growing backlog.
    pub saturated: bool,
}

/// Drives one thread per connection through its arrivals. A connection
/// whose next request is already `abort_behind` late stops early. `call`
/// does the round trip; `check` judges its reply after the latency is
/// taken, so oracle work never counts as latency.
pub fn open_loop<C: Send, R: Sync, P, T: Send>(
    conns: &mut [C],
    arrivals: &[Vec<Arrival<R>>],
    abort_behind: Duration,
    call: impl Fn(&mut C, &R) -> P + Sync,
    check: impl Fn(P) -> T + Sync,
) -> Vec<OpenLog<T>> {
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(arrivals)
            .map(|(conn, plan)| {
                let (call, check) = (&call, &check);
                scope.spawn(move || {
                    let mut log = OpenLog {
                        records: Vec::with_capacity(plan.len()),
                        saturated: false,
                    };
                    for a in plan {
                        let due = start + Duration::from_secs_f64(a.due);
                        let now = Instant::now();
                        let lateness_ms = if now < due {
                            std::thread::sleep(due - now);
                            Some(ms(due.elapsed()))
                        } else if now - due > abort_behind {
                            log.saturated = true;
                            break;
                        } else {
                            None
                        };
                        let reply = call(conn, &a.request);
                        let latency_ms = ms(due.elapsed());
                        log.records.push(Record {
                            latency_ms,
                            lateness_ms,
                            result: check(reply),
                        });
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

/// Drives one thread per connection, each sending back to back until
/// `duration` has passed; `call` gets the connection, its index and its
/// request sequence number, and `check` judges the reply untimed.
pub fn closed_loop<C: Send, P, T: Send>(
    conns: &mut [C],
    duration: Duration,
    call: impl Fn(&mut C, usize, usize) -> P + Sync,
    check: impl Fn(P) -> T + Sync,
) -> Vec<Vec<Record<T>>> {
    let end = Instant::now() + duration;
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (call, check) = (&call, &check);
                scope.spawn(move || {
                    let mut records = Vec::new();
                    while Instant::now() < end {
                        let sent = Instant::now();
                        let reply = call(conn, c, records.len());
                        let latency_ms = ms(sent.elapsed());
                        records.push(Record {
                            latency_ms,
                            lateness_ms: None,
                            result: check(reply),
                        });
                    }
                    records
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_exact() {
        let a = poisson_schedule(&mut Rng::new(5), 100.0, 2.0);
        let b = poisson_schedule(&mut Rng::new(5), 100.0, 2.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        // Gaps of a Poisson process are exponential: mean 1/rate.
        let mean_gap = a.windows(2).map(|w| w[1] - w[0]).sum::<f64>() / 199.0;
        assert!((mean_gap - 0.01).abs() < 0.002, "{mean_gap}");
    }

    #[test]
    fn open_loop_times_from_due_and_detects_backlog() {
        // One connection whose calls take 30 ms, offered one request every
        // 10 ms: it falls behind and must stop once 50 ms late.
        let plan: Vec<Arrival<()>> = (0..50)
            .map(|i| Arrival {
                due: i as f64 * 0.01,
                request: (),
            })
            .collect();
        let logs = open_loop(
            &mut [()],
            &[plan],
            Duration::from_millis(50),
            |_, _| std::thread::sleep(Duration::from_millis(30)),
            |()| (),
        );
        let log = &logs[0];
        assert!(log.saturated);
        assert!(log.records.len() < 10);
        // Queued requests are charged the wait behind earlier ones.
        let last = log.records.last().unwrap();
        assert!(last.latency_ms > 50.0, "{}", last.latency_ms);
        assert!(log.records[0].lateness_ms.is_some());
    }

    #[test]
    fn closed_loop_runs_each_connection_back_to_back() {
        let logs = closed_loop(
            &mut [0u32, 0u32],
            Duration::from_millis(60),
            |n, c, seq| {
                *n += 1;
                std::thread::sleep(Duration::from_millis(10));
                (c, seq)
            },
            |reply| reply,
        );
        for (c, log) in logs.iter().enumerate() {
            assert!((4..=8).contains(&log.len()), "{}", log.len());
            assert!(log.iter().enumerate().all(|(i, r)| r.result == (c, i)));
        }
    }
}
