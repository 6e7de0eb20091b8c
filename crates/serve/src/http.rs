//! The network front end: one `TcpListener` multiplexing HTTP/1.1 and
//! the binary protocol (sniffed via a 4-byte `peek` for
//! [`BINARY_MAGIC`](crate::wire::BINARY_MAGIC)), a thread per connection
//! under a hard cap, and the admin surface (`/metrics`, `/healthz`,
//! `/admin/swap`, `/admin/append`, `/admin/shutdown`).
//!
//! Every accepted socket sets `TCP_NODELAY` and sends each response with
//! one write, so no response waits on the client's delayed ACK. Reads and
//! writes run under deadlines, so a client that stalls or trickles bytes
//! loses its connection instead of holding a slot forever.
//!
//! Hand-rolled on `std::net` — the workspace builds offline with no HTTP
//! or async dependencies, and the server needs exactly six routes.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::{Engine, ServeError};
use crate::wire;

const MAX_HEAD_BYTES: usize = 16 << 10;

/// How long a connection may sit idle before its first request and
/// between requests.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);
/// Deadline for a request head (the HTTP head, or the binary magic and
/// length prefix), counted from its first byte.
const HEAD_TIMEOUT: Duration = Duration::from_secs(10);
/// Deadline for a request body, counted from the end of its head. Longer
/// than the head's: `/admin/swap` bodies carry whole artifacts.
const BODY_TIMEOUT: Duration = Duration::from_secs(30);
/// Deadline for writing one response.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// A socket half whose reads and writes fail once `deadline` passes,
/// however the peer paces its bytes: every call re-arms the socket timeout
/// to the time left.
struct Deadlined {
    stream: TcpStream,
    deadline: Instant,
}

impl Deadlined {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            deadline: Instant::now(),
        }
    }

    /// Starts a new phase that must finish within `budget`.
    fn arm(&mut self, budget: Duration) {
        self.deadline = Instant::now() + budget;
    }

    fn time_left(&self) -> io::Result<Duration> {
        match self.deadline.checked_duration_since(Instant::now()) {
            Some(left) if !left.is_zero() => Ok(left),
            _ => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "connection deadline passed",
            )),
        }
    }

    /// Writes one whole response within [`WRITE_TIMEOUT`].
    fn send(&mut self, response: &[u8]) -> io::Result<()> {
        self.arm(WRITE_TIMEOUT);
        self.write_all(response)
    }
}

impl Read for Deadlined {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.time_left()?))?;
        self.stream.read(buf)
    }
}

impl Write for Deadlined {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.time_left()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Waits up to [`IDLE_TIMEOUT`] for the first byte of the next request,
/// then arms [`HEAD_TIMEOUT`] for its head. False when the client closed
/// or idled out between requests: both end the session cleanly.
fn await_request(reader: &mut BufReader<Deadlined>) -> io::Result<bool> {
    reader.get_mut().arm(IDLE_TIMEOUT);
    let arrived = match reader.fill_buf() {
        Ok(buffered) => !buffered.is_empty(),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            false
        }
        Err(e) => return Err(e),
    };
    reader.get_mut().arm(HEAD_TIMEOUT);
    Ok(arrived)
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros() as u64
}

/// A running server: the listener thread plus a shared [`Engine`].
pub struct Server {
    engine: Arc<Engine>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the engine's configured address and starts accepting
    /// connections. Use port `0` to bind an ephemeral port (tests).
    pub fn start(engine: Arc<Engine>) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&engine.config().addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let acceptor = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    if active.load(Ordering::SeqCst) >= engine.config().max_connections {
                        let _ = reject_busy(stream);
                        continue;
                    }
                    active.fetch_add(1, Ordering::SeqCst);
                    let engine = Arc::clone(&engine);
                    let stop = Arc::clone(&stop);
                    let active = Arc::clone(&active);
                    std::thread::spawn(move || {
                        let _ = serve_connection(stream, &engine, &stop);
                        active.fetch_sub(1, Ordering::SeqCst);
                    });
                }
            })
        };
        Ok(Server {
            engine,
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (reports the OS-assigned port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's engine (for in-process swaps and metrics).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// True once `/admin/shutdown` was hit or [`Server::shutdown`] ran.
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stops accepting, closes the engine to new requests, and joins the
    /// acceptor.
    pub fn shutdown(&mut self) {
        request_stop(&self.stop, self.addr);
        self.engine.shutdown();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Flags the acceptor to stop and wakes it with a throwaway connection
/// (the `incoming()` iterator only notices the flag on its next accept).
fn request_stop(stop: &AtomicBool, addr: SocketAddr) {
    if stop.swap(true, Ordering::SeqCst) {
        return;
    }
    let _ = TcpStream::connect(addr);
}

fn reject_busy(mut stream: TcpStream) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
    )
}

/// Handles one connection: sniffs the first four bytes to pick the
/// protocol, then loops over requests until close/shutdown.
fn serve_connection(
    stream: TcpStream,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
) -> Result<(), ServeError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IDLE_TIMEOUT))?;
    let mut magic = [0u8; 4];
    let mut seen = 0;
    let mut magic_deadline = None;
    // peek returns however many bytes are buffered; wait for all four
    // before deciding (a client may dribble the magic byte-by-byte).
    while seen < 4 {
        seen = stream.peek(&mut magic)?;
        if seen == 0 {
            return Ok(()); // closed before sending anything
        }
        if seen < 4 {
            if !magic[..seen]
                .iter()
                .zip(wire::BINARY_MAGIC)
                .all(|(a, b)| *a == b)
            {
                break; // already disagrees with the magic → HTTP
            }
            // Prefix matches but the client hasn't sent all four bytes;
            // peek returns immediately, so back off instead of spinning,
            // and give up once the head deadline passes.
            let deadline = *magic_deadline.get_or_insert_with(|| Instant::now() + HEAD_TIMEOUT);
            if Instant::now() >= deadline {
                return Err(ServeError::Protocol("binary magic timed out".into()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let writer = Deadlined::new(stream.try_clone()?);
    let mut reader = BufReader::new(Deadlined::new(stream));
    reader.get_mut().arm(HEAD_TIMEOUT);
    if seen >= 4 && magic == wire::BINARY_MAGIC {
        reader.read_exact(&mut magic)?;
        serve_binary(reader, writer, engine, stop)
    } else {
        serve_http(reader, writer, engine, stop)
    }
}

/// The binary session loop: answer `u32 len | request` frames with
/// `u32 len | response` frames.
fn serve_binary(
    mut reader: BufReader<Deadlined>,
    mut writer: Deadlined,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
) -> Result<(), ServeError> {
    loop {
        if stop.load(Ordering::SeqCst) || !await_request(&mut reader)? {
            return Ok(());
        }
        let len = wire::read_frame_len(&mut reader, engine.config().max_body_bytes)?;
        reader.get_mut().arm(BODY_TIMEOUT);
        let payload = wire::read_body(&mut reader, len)?;
        let result =
            wire::decode_binary_request(&payload).and_then(|request| engine.submit(request));
        let frame = wire::encode_binary_response_frame(&result);
        let started = Instant::now();
        writer.send(&frame)?;
        engine.metrics().record_write_us(elapsed_us(started));
    }
}

struct HttpRequest {
    method: String,
    path: String,
    body: Vec<u8>,
    keep_alive: bool,
}

/// The HTTP session loop: parse request, route, respond, honor
/// keep-alive.
fn serve_http(
    mut reader: BufReader<Deadlined>,
    mut writer: Deadlined,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
) -> Result<(), ServeError> {
    loop {
        let request = match read_http_request(&mut reader, engine.config().max_body_bytes) {
            Ok(Some(r)) => r,
            Ok(None) => return Ok(()), // clean close between requests
            Err(e) => {
                let msg = wire::write_json_error(&e);
                write_http_response(&mut writer, 400, "application/json", msg.as_bytes(), false)?;
                return Err(e);
            }
        };
        let keep_alive = request.keep_alive && !stop.load(Ordering::SeqCst);
        match route(engine, stop, &request) {
            Route::Done(status, content_type, body) => {
                let started = Instant::now();
                write_http_response(&mut writer, status, content_type, &body, keep_alive)?;
                if (request.method.as_str(), request.path.as_str()) == ("POST", "/featurize") {
                    engine.metrics().record_write_us(elapsed_us(started));
                }
            }
            Route::Shutdown(body) => {
                // Respond first so the caller sees the acknowledgement,
                // then close the engine to new requests and wake the
                // acceptor.
                write_http_response(&mut writer, 200, "application/json", &body, false)?;
                request_stop(stop, writer.stream.local_addr()?);
                engine.shutdown();
                return Ok(());
            }
        }
        if !keep_alive {
            return Ok(());
        }
    }
}

enum Route {
    Done(u16, &'static str, Vec<u8>),
    Shutdown(Vec<u8>),
}

fn route(engine: &Arc<Engine>, stop: &Arc<AtomicBool>, request: &HttpRequest) -> Route {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/featurize") => {
            let result = std::str::from_utf8(&request.body)
                .map_err(|_| ServeError::Protocol("request body is not UTF-8".into()))
                .and_then(wire::parse_json_request)
                .and_then(|req| engine.submit(req));
            match result {
                Ok(resp) => Route::Done(
                    200,
                    "application/json",
                    wire::write_json_response(&resp).into_bytes(),
                ),
                Err(e) => Route::Done(
                    error_status(&e),
                    "application/json",
                    wire::write_json_error(&e).into_bytes(),
                ),
            }
        }
        ("GET", "/metrics") => {
            Route::Done(200, "application/json", engine.metrics_json().into_bytes())
        }
        ("GET", "/healthz") => {
            let body = if stop.load(Ordering::SeqCst) {
                &b"{\"status\":\"stopping\"}"[..]
            } else {
                &b"{\"status\":\"ok\"}"[..]
            };
            Route::Done(200, "application/json", body.to_vec())
        }
        ("POST", "/admin/append") => {
            let result = std::str::from_utf8(&request.body)
                .map_err(|_| ServeError::Protocol("request body is not UTF-8".into()))
                .and_then(wire::parse_append_request)
                .and_then(|req| engine.append_rows(&req.table, &req.rows, &req.options));
            match result {
                Ok(outcome) => Route::Done(
                    200,
                    "application/json",
                    wire::write_append_response(&outcome).into_bytes(),
                ),
                Err(e) => Route::Done(
                    error_status(&e),
                    "application/json",
                    wire::write_json_error(&e).into_bytes(),
                ),
            }
        }
        ("POST", "/admin/swap") => match swap_body(engine, &request.body) {
            Ok((version, checksum)) => Route::Done(
                200,
                "application/json",
                format!("{{\"version\":{version},\"checksum\":{checksum}}}").into_bytes(),
            ),
            Err(e) => Route::Done(
                409,
                "application/json",
                wire::write_json_error(&e).into_bytes(),
            ),
        },
        ("POST", "/admin/shutdown") => Route::Shutdown(b"{\"status\":\"stopping\"}".to_vec()),
        _ => Route::Done(
            404,
            "application/json",
            b"{\"error\":\"no such route\"}".to_vec(),
        ),
    }
}

/// `/admin/swap` accepts either raw artifact bytes (octet-stream) or a
/// JSON `{"path": "..."}` pointing at an artifact file on the server.
fn swap_body(engine: &Arc<Engine>, body: &[u8]) -> Result<(u64, u32), ServeError> {
    if body.first() == Some(&b'{') {
        let text = std::str::from_utf8(body)
            .map_err(|_| ServeError::Protocol("swap body is not UTF-8".into()))?;
        let doc = crate::json::parse(text)
            .map_err(|e| ServeError::Protocol(format!("invalid swap JSON: {e}")))?;
        let path = doc
            .get("path")
            .and_then(crate::json::Value::as_str)
            .ok_or_else(|| ServeError::Protocol("swap JSON needs a \"path\" string".into()))?;
        engine.swap_from_path(std::path::Path::new(path))
    } else {
        engine.swap_from_bytes(body)
    }
}

fn error_status(e: &ServeError) -> u16 {
    match e {
        ServeError::ShuttingDown => 503,
        ServeError::Protocol(_) | ServeError::Model(_) | ServeError::Artifact(_) => 400,
        ServeError::Io(_) => 500,
    }
}

/// Parses one HTTP/1.1 request. Returns `Ok(None)` on a clean EOF or an
/// idle timeout before the first byte of a request.
fn read_http_request(
    reader: &mut BufReader<Deadlined>,
    max_body_bytes: usize,
) -> Result<Option<HttpRequest>, ServeError> {
    if !await_request(reader)? {
        return Ok(None);
    }
    let mut line = String::new();
    read_head_line(reader, &mut line, MAX_HEAD_BYTES)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServeError::Protocol("empty request line".into()))?
        .to_owned();
    let path = parts
        .next()
        .ok_or_else(|| ServeError::Protocol("request line has no path".into()))?
        .to_owned();
    let version = parts.next().unwrap_or("HTTP/1.1");
    let mut keep_alive = version != "HTTP/1.0";

    let mut headers = HashMap::new();
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        read_head_line(reader, &mut header, MAX_HEAD_BYTES - head_bytes)?;
        head_bytes += header.len();
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_owned();
            // Conflicting duplicate content-length headers are a request
            // smuggling vector (RFC 9112 §6.3) — last-wins silently picks
            // whichever copy an intermediary didn't see. Reject the
            // request; identical repeats are tolerated.
            if let Some(prev) = headers.get(&name) {
                if name == "content-length" && *prev != value {
                    return Err(ServeError::Protocol(
                        "conflicting content-length headers".into(),
                    ));
                }
            }
            headers.insert(name, value);
        }
    }
    if let Some(conn) = headers.get("connection") {
        keep_alive = !conn.eq_ignore_ascii_case("close");
    }
    let content_length = match headers.get("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ServeError::Protocol("bad content-length".into()))?,
        None => 0,
    };
    if content_length > max_body_bytes {
        return Err(ServeError::Protocol(format!(
            "body of {content_length} bytes exceeds limit {max_body_bytes}"
        )));
    }
    reader.get_mut().arm(BODY_TIMEOUT);
    let body = wire::read_body(reader, content_length)?;
    Ok(Some(HttpRequest {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// Reads one head line into `line`, reading at most `budget` bytes so a
/// line that never ends cannot grow without bound.
fn read_head_line(
    reader: &mut BufReader<Deadlined>,
    line: &mut String,
    budget: usize,
) -> Result<(), ServeError> {
    let n = reader.take(budget as u64).read_line(line)?;
    if n == budget && !line.ends_with('\n') {
        return Err(ServeError::Protocol("request head too large".into()));
    }
    Ok(())
}

/// Sends one response, head and body, in a single write.
fn write_http_response(
    writer: &mut Deadlined,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> Result<(), ServeError> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let mut response = Vec::with_capacity(128 + body.len());
    write!(
        response,
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
    .expect("writing to a Vec cannot fail");
    response.extend_from_slice(body);
    writer.send(&response)?;
    Ok(())
}
