#![warn(missing_docs)]
//! SPARQL HTTP/1.1 endpoint over the AMbER serving layer.
//!
//! A dependency-free, thread-per-connection front-end that exposes an
//! [`amber_serve::Server`] on a TCP port:
//!
//! * `GET /sparql?query=…` and `POST /sparql` — the SPARQL Protocol
//!   query operation (`application/x-www-form-urlencoded` and
//!   `application/sparql-query` request bodies);
//! * `GET /metrics` — the server's unified telemetry registry rendered
//!   in Prometheus text exposition format;
//! * content negotiation between SPARQL JSON
//!   (`application/sparql-results+json`, the default) and TSV
//!   (`text/tab-separated-values`) results — see [`results`];
//! * per-connection tenant mapping through a configurable header
//!   ([`HttpConfig::tenant_header`]);
//! * a `timeout=` parameter (milliseconds) passed to
//!   [`Server::execute`] as the request's admission-to-answer budget —
//!   queue wait counts against it;
//! * backpressure: admission rejections surface as `503` with a
//!   `Retry-After` computed from the serving layer's service-rate EWMA,
//!   queue sheds as `504` — the whole mapping comes from
//!   [`amber::Error::status_code`], the one protocol table every
//!   front-end shares.
//!
//! ```no_run
//! use amber::AmberEngine;
//! use amber_http::{HttpConfig, HttpServer};
//! use amber_serve::{ServeConfig, Server};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(AmberEngine::load_ntriples("…").unwrap());
//! let server = Server::start(engine, ServeConfig::default());
//! let http = HttpServer::start(server, HttpConfig::default()).unwrap();
//! println!("listening on http://{}", http.local_addr());
//! // … later:
//! let report = http.shutdown();
//! println!("{} result-cache hits", report.result_stats.hits);
//! ```
//!
//! Each connection thread calls [`Server::execute`], so a request runs on
//! the thread of the connection it arrived on, and connections never run
//! each other's requests. The front-end holds its `Server` directly, with
//! no lock: [`HttpServer::shutdown`] joins every thread that can reach it
//! before it takes the `Server` back to drain it.
//!
//! See `docs/http.md` for the endpoint reference and the status-mapping
//! table.

pub mod results;

pub use results::{sparql_json, sparql_tsv};

use amber_obs::{Counter, Histogram};
use amber_serve::{ServeReport, Server};
use amber_util::http::{
    parse_head_spans, split_target, Form, HeadSpans, HttpParseError, RequestHead,
};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a connection thread wakes from a blocked read to check the
/// drain flag (also the granularity of [`HttpConfig::read_deadline`]).
const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// A connection keeps its response body buffer between requests, cleared
/// but not freed, so a large answer is written into pages that are
/// already mapped. Above this capacity the buffer is released instead, so
/// one outlier answer does not pin its memory for the connection's life.
/// It is also the largest result body memoized on a cached answer.
const MAX_RETAINED_BODY_BYTES: usize = 8 << 20;

/// First allocation of a connection's request buffer (it doubles from
/// here, up to the configured head + body ceiling).
const REQUEST_BUF_START: usize = 4096;

/// Front-end registry handles, resolved once per process (the underlying
/// registry interns by name+labels; caching skips the intern lock).
struct HttpMetrics {
    sparql: Arc<Counter>,
    metrics: Arc<Counter>,
    other: Arc<Counter>,
    ok: Arc<Counter>,
    client_error: Arc<Counter>,
    server_error: Arc<Counter>,
    response_bytes: Arc<Counter>,
    serialize_us: Arc<Histogram>,
    bodies_serialized: Arc<Counter>,
    bodies_memoized: Arc<Counter>,
}

fn http_metrics() -> &'static HttpMetrics {
    static METRICS: OnceLock<HttpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| HttpMetrics {
        sparql: amber_obs::counter("amber_http_requests_total", &[("endpoint", "sparql")]),
        metrics: amber_obs::counter("amber_http_requests_total", &[("endpoint", "metrics")]),
        other: amber_obs::counter("amber_http_requests_total", &[("endpoint", "other")]),
        ok: amber_obs::counter("amber_http_responses_total", &[("class", "2xx")]),
        client_error: amber_obs::counter("amber_http_responses_total", &[("class", "4xx")]),
        server_error: amber_obs::counter("amber_http_responses_total", &[("class", "5xx")]),
        response_bytes: amber_obs::counter("amber_http_response_bytes_total", &[]),
        serialize_us: amber_obs::histogram("amber_http_serialize_us", &[]),
        bodies_serialized: amber_obs::counter(
            "amber_http_result_bodies_total",
            &[("source", "serialized")],
        ),
        bodies_memoized: amber_obs::counter(
            "amber_http_result_bodies_total",
            &[("source", "memoized")],
        ),
    })
}

/// Knobs of an [`HttpServer`].
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address; port `0` picks a free port (read it back through
    /// [`HttpServer::local_addr`]).
    pub addr: String,
    /// Request header naming the serving-layer tenant (ASCII
    /// case-insensitive match).
    pub tenant_header: String,
    /// Tenant for requests without the header.
    pub default_tenant: String,
    /// Ceiling on the request head (request line + headers); beyond it
    /// the request is answered `431`.
    pub max_head_bytes: usize,
    /// Ceiling on a request body; beyond it the request is answered
    /// `413`.
    pub max_body_bytes: usize,
    /// How long a connection may take to deliver one full request after
    /// its first byte; beyond it the request is answered `408` (enforced
    /// at `POLL_INTERVAL` granularity).
    pub read_deadline: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            tenant_header: "x-amber-tenant".to_string(),
            default_tenant: "public".to_string(),
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1 << 20,
            read_deadline: Duration::from_secs(10),
        }
    }
}

/// State shared between the accept loop and every connection thread.
/// [`HttpServer::shutdown`] joins all of them before it takes the
/// `Server` back, so the server needs no lock of its own.
struct Shared {
    server: Server,
    draining: AtomicBool,
    config: HttpConfig,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// The HTTP front-end: an accept thread plus one thread per live
/// connection, all over one [`amber_serve::Server`].
pub struct HttpServer {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl HttpServer {
    /// Bind [`HttpConfig::addr`] and start serving `server` on it. The
    /// `Server` is owned by the front-end from here on;
    /// [`HttpServer::shutdown`] drains it and returns its
    /// [`ServeReport`].
    pub fn start(server: Server, config: HttpConfig) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            server,
            draining: AtomicBool::new(false),
            config,
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("amber-http-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(HttpServer {
            shared,
            accept: Some(accept),
            addr,
        })
    }

    /// The bound address (resolves the port when `addr` asked for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying [`Server`] (direct submission, counters, the
    /// slow-query log…).
    pub fn server(&self) -> &Server {
        &self.shared.server
    }

    /// Graceful drain: stop accepting, let every in-flight request finish
    /// and close idle keep-alive connections, then shut the serving layer
    /// down (which drains its queue) and return its report.
    pub fn shutdown(mut self) -> ServeReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let conns =
            std::mem::take(&mut *self.shared.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for conn in conns {
            let _ = conn.join();
        }
        let Ok(shared) = Arc::try_unwrap(self.shared) else {
            unreachable!("the acceptor and every connection are joined");
        };
        shared.server.shutdown()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            // The shutdown wake-up (or a client racing it) — stop.
            return;
        }
        if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
            continue;
        }
        // A response is one write, but its last partial segment would
        // still wait under Nagle for the client's (delayed) ACK of the
        // ones before it, ~40 ms per exchange.
        let _ = stream.set_nodelay(true);
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("amber-http-conn".to_string())
            .spawn(move || handle_connection(stream, conn_shared));
        if let Ok(handle) = handle {
            let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            conns.retain(|c| !c.is_finished());
            conns.push(handle);
        }
    }
}

/// What one poll-interval read attempt produced.
enum ReadStep {
    /// New bytes were appended to the buffer.
    Progress,
    /// The peer closed (or the socket failed) — abandon the connection.
    Closed,
    /// A partially received request outlived the read deadline.
    Deadline,
    /// The connection is idle (no request bytes) and the server is
    /// draining — close it.
    DrainIdle,
}

/// The bytes received on a connection and not yet consumed. `data` is
/// kept initialized past `filled` so the socket reads straight into it —
/// no bounce buffer, and the zeroing is paid once per growth rather than
/// once per read.
#[derive(Default)]
struct RequestBuf {
    data: Vec<u8>,
    filled: usize,
}

impl RequestBuf {
    fn bytes(&self) -> &[u8] {
        &self.data[..self.filled]
    }

    /// The writable tail, doubled first when it is empty (so a body of n
    /// bytes costs O(log n) growths and reads), never past `limit`.
    fn spare(&mut self, limit: usize) -> &mut [u8] {
        if self.filled == self.data.len() {
            let grown = (self.data.len() * 2).max(REQUEST_BUF_START);
            self.data.resize(grown.min(limit), 0);
        }
        &mut self.data[self.filled..]
    }

    /// Drop the first `n` bytes (one answered request), keeping whatever
    /// the client pipelined behind them.
    fn consume(&mut self, n: usize) {
        self.data.copy_within(n..self.filled, 0);
        self.filled -= n;
    }
}

/// Block (at [`POLL_INTERVAL`] granularity) until more request bytes
/// arrive, the connection dies, the drain flag trips on an idle
/// connection, or a partial request exceeds the read deadline.
fn read_step(
    stream: &mut TcpStream,
    buf: &mut RequestBuf,
    shared: &Shared,
    started: &mut Option<Instant>,
) -> ReadStep {
    // One byte past the head ceiling even with `max_body_bytes == 0`, so
    // an unterminated head can always grow into its 431.
    let limit = shared.config.max_head_bytes + shared.config.max_body_bytes.max(1);
    loop {
        match stream.read(buf.spare(limit)) {
            Ok(0) => return ReadStep::Closed,
            Ok(n) => {
                started.get_or_insert_with(Instant::now);
                buf.filled += n;
                return ReadStep::Progress;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if buf.filled == 0 && shared.draining.load(Ordering::SeqCst) {
                    return ReadStep::DrainIdle;
                }
                if let Some(started) = started {
                    if started.elapsed() >= shared.config.read_deadline {
                        return ReadStep::Deadline;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadStep::Closed,
        }
    }
}

/// The buffers a connection thread answers from, reused across its
/// requests: cleared, not freed (see [`MAX_RETAINED_BODY_BYTES`]), plus
/// the slot for a result body memoized on the answer's shared `Bindings`.
#[derive(Default)]
struct ResponseBufs {
    head: String,
    body: String,
    /// The request's decoded parameters (query string and form body).
    form: Form,
    /// When set, the response body instead of `body`: sent straight from
    /// the answer's memo, never copied. [`respond_and_count`] takes it, so
    /// it cannot outlive the one response it was set for.
    memo: Option<Arc<str>>,
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let mut buf = RequestBuf::default();
    let mut spans = HeadSpans::default();
    let mut out = ResponseBufs::default();
    // Any failure to receive a whole request answers once and hangs up.
    let refuse = |stream: &mut TcpStream, out: &mut ResponseBufs, status: u16, message: &str| {
        let response = Response::error(&mut out.body, status, message);
        respond_and_count(stream, out, &response, false);
    };
    let refuse_unframed = |stream: &mut TcpStream, out: &mut ResponseBufs, e: HttpParseError| {
        refuse(stream, out, parse_error_status(&e), &e.to_string())
    };
    loop {
        // Phase 1: accumulate one full request head. Its fields are kept
        // as spans: the body is read into the same buffer, which may move.
        let mut started: Option<Instant> = (buf.filled > 0).then(Instant::now);
        let consumed = loop {
            match parse_head_spans(buf.bytes(), shared.config.max_head_bytes, &mut spans) {
                Ok(Some(parsed)) => break parsed,
                Ok(None) => {}
                Err(e) => return refuse_unframed(&mut stream, &mut out, e),
            }
            match read_step(&mut stream, &mut buf, &shared, &mut started) {
                ReadStep::Progress => {}
                ReadStep::Closed | ReadStep::DrainIdle => return,
                ReadStep::Deadline => {
                    return refuse(&mut stream, &mut out, 408, "request not received in time")
                }
            }
        };
        // Phase 2: the declared body. A body this server cannot frame is
        // refused with the connection closed: its bytes must never be
        // read as the next request head.
        let body_len = match spans.read(buf.bytes()).content_length() {
            Ok(len) => len.unwrap_or(0),
            Err(e) => return refuse_unframed(&mut stream, &mut out, e),
        };
        if body_len > shared.config.max_body_bytes {
            return refuse(&mut stream, &mut out, 413, "request body too large");
        }
        let request_len = consumed + body_len;
        while buf.filled < request_len {
            match read_step(&mut stream, &mut buf, &shared, &mut started) {
                ReadStep::Progress => {}
                ReadStep::Closed | ReadStep::DrainIdle => return,
                ReadStep::Deadline => {
                    return refuse(
                        &mut stream,
                        &mut out,
                        408,
                        "request body not received in time",
                    )
                }
            }
        }
        // Phase 3: dispatch and answer.
        out.body.clear();
        let head = spans.read(buf.bytes());
        let response = handle_request(
            &shared,
            &head,
            &buf.bytes()[consumed..request_len],
            &mut out,
        );
        let close = head.wants_close() || shared.draining.load(Ordering::SeqCst);
        respond_and_count(&mut stream, &mut out, &response, !close);
        if close {
            return;
        }
        if out.body.capacity() > MAX_RETAINED_BODY_BYTES {
            out.body = String::new();
        }
        buf.consume(request_len);
    }
}

/// The status a request that fails to parse or frame is refused with.
fn parse_error_status(e: &HttpParseError) -> u16 {
    match e {
        HttpParseError::HeadTooLarge => 431,
        HttpParseError::UnsupportedVersion => 505,
        HttpParseError::UnsupportedTransferEncoding => 501,
        _ => 400,
    }
}

/// Status line and headers of one response; its body is the connection's
/// [`ResponseBufs::memo`] if set, else its [`ResponseBufs::body`].
struct Response {
    status: u16,
    content_type: &'static str,
    extra: Vec<(&'static str, String)>,
}

impl Response {
    /// A `200` whose body the caller has written into the body buffer.
    fn ok(content_type: &'static str) -> Self {
        Response {
            status: 200,
            content_type,
            extra: Vec::new(),
        }
    }

    /// A plain-text failure; `message` replaces whatever `body` held.
    fn error(body: &mut String, status: u16, message: &str) -> Self {
        body.clear();
        body.push_str(message);
        body.push('\n');
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra: Vec::new(),
        }
    }

    fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra.push((name, value));
        self
    }

    /// Fold any unified-taxonomy failure into its wire form: the status
    /// from [`amber::Error::status_code`], a `Retry-After` (whole
    /// seconds, rounded up) when [`amber::Error::retry_after`] carries a
    /// hint, the `Display` text as the body.
    fn from_error(body: &mut String, e: &amber::Error) -> Self {
        let mut response = Response::error(body, e.status_code(), &e.to_string());
        if let Some(hint) = e.retry_after() {
            let secs = hint.as_secs() + u64::from(hint.subsec_nanos() > 0);
            response = response.with_header("Retry-After", secs.max(1).to_string());
        }
        response
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        406 => "Not Acceptable",
        408 => "Request Timeout",
        413 => "Content Too Large",
        415 => "Unsupported Media Type",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

fn respond_and_count(
    stream: &mut TcpStream,
    out: &mut ResponseBufs,
    response: &Response,
    keep_alive: bool,
) {
    use std::fmt::Write as _;
    let memo = out.memo.take();
    let body = memo.as_deref().unwrap_or(&out.body).as_bytes();
    out.head.clear();
    let _ = write!(
        out.head,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        body.len(),
    );
    for (name, value) in &response.extra {
        let _ = write!(out.head, "{name}: {value}\r\n");
    }
    let _ = write!(
        out.head,
        "Connection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    );
    let metrics = http_metrics();
    match response.status {
        200..=299 => metrics.ok.inc(),
        400..=499 => metrics.client_error.inc(),
        _ => metrics.server_error.inc(),
    }
    metrics
        .response_bytes
        .add((out.head.len() + body.len()) as u64);
    let _ = write_response(stream, out.head.as_bytes(), body);
}

/// Send head and body with one vectored write (one syscall, and under
/// `TCP_NODELAY` one burst instead of a lone head segment followed by the
/// body). A body larger than the socket buffer is accepted in pieces: the
/// loop resumes from wherever the kernel stopped.
fn write_response(stream: &mut impl Write, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let total = head.len() + body.len();
    let mut sent = 0;
    while sent < total {
        let written = if sent < head.len() {
            stream.write_vectored(&[IoSlice::new(&head[sent..]), IoSlice::new(body)])
        } else {
            stream.write(&body[sent - head.len()..])
        };
        match written {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn handle_request(
    shared: &Shared,
    head: &RequestHead,
    body: &[u8],
    out: &mut ResponseBufs,
) -> Response {
    let (path, raw_query) = split_target(head.target);
    match path {
        "/sparql" => {
            http_metrics().sparql.inc();
            sparql_endpoint(shared, head, raw_query, body, out)
        }
        "/metrics" => {
            http_metrics().metrics.inc();
            metrics_endpoint(head, &mut out.body)
        }
        _ => {
            http_metrics().other.inc();
            Response::error(
                &mut out.body,
                404,
                "no such resource (try /sparql or /metrics)",
            )
        }
    }
}

/// The negotiated result serialization. The discriminant is the format
/// tag a memoized body is keyed by ([`amber::QueryOutcome::wire_body`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Format {
    Json,
    Tsv,
}

impl Format {
    fn content_type(self) -> &'static str {
        match self {
            Format::Json => "application/sparql-results+json",
            Format::Tsv => "text/tab-separated-values; charset=utf-8",
        }
    }
}

/// First supported media range in the `Accept` header wins, skipping any
/// whose `q` parameter parses to 0 (the client declared it unacceptable;
/// other q-values do not reorder); no header (or a wildcard) means JSON;
/// nothing supported means `None` → 406.
fn negotiate(accept: Option<&str>) -> Option<Format> {
    const JSON: [&str; 4] = [
        "application/sparql-results+json",
        "application/json",
        "*/*",
        "application/*",
    ];
    const TSV: [&str; 2] = ["text/tab-separated-values", "text/*"];
    let Some(accept) = accept else {
        return Some(Format::Json);
    };
    for part in accept.split(',') {
        let mut params = part.split(';');
        let media = params.next().unwrap_or("").trim();
        let refused = params.any(|param| {
            param.split_once('=').is_some_and(|(name, value)| {
                name.trim().eq_ignore_ascii_case("q") && value.trim().parse::<f64>() == Ok(0.0)
            })
        });
        if refused {
            continue;
        }
        let is = |ranges: &[&str]| ranges.iter().any(|r| media.eq_ignore_ascii_case(r));
        if is(&JSON) {
            return Some(Format::Json);
        }
        if is(&TSV) {
            return Some(Format::Tsv);
        }
    }
    None
}

fn sparql_endpoint(
    shared: &Shared,
    head: &RequestHead,
    raw_query: Option<&str>,
    body: &[u8],
    out: &mut ResponseBufs,
) -> Response {
    let ResponseBufs {
        body: out,
        memo,
        form: params,
        ..
    } = out;
    // Parameters come from the URL's query string for every method, plus
    // the body for `POST` with a form body. A direct
    // `application/sparql-query` body *is* the query.
    params.clear();
    if let Some(raw_query) = raw_query {
        params.extend(raw_query);
    }
    let mut direct_query: Option<&str> = None;
    match head.method {
        "GET" => {}
        "POST" => {
            let Ok(text) = std::str::from_utf8(body) else {
                return Response::error(out, 400, "request body is not UTF-8");
            };
            match head.media_type() {
                Some(media) if media.eq_ignore_ascii_case("application/x-www-form-urlencoded") => {
                    params.extend(text)
                }
                Some(media) if media.eq_ignore_ascii_case("application/sparql-query") => {
                    direct_query = Some(text)
                }
                _ => {
                    return Response::error(
                        out,
                        415,
                        "POST /sparql takes application/x-www-form-urlencoded \
                         or application/sparql-query",
                    )
                }
            }
        }
        _ => {
            return Response::error(out, 405, "use GET or POST")
                .with_header("Allow", "GET, POST".to_string())
        }
    }
    let query = match direct_query.or_else(|| params.get("query")) {
        Some(text) => text,
        None => return Response::error(out, 400, "missing required `query` parameter"),
    };
    let mut budget = None;
    if let Some(raw) = params.get("timeout") {
        match raw.parse::<u64>() {
            Ok(ms) if ms > 0 => budget = Some(Duration::from_millis(ms)),
            _ => {
                return Response::error(
                    out,
                    400,
                    "`timeout` must be a positive integer (milliseconds)",
                )
            }
        }
    }
    let Some(format) = negotiate(head.header("accept")) else {
        return Response::error(
            out,
            406,
            "supported result formats: application/sparql-results+json, \
             text/tab-separated-values",
        );
    };
    let tenant = head
        .header(&shared.config.tenant_header)
        .filter(|t| !t.is_empty())
        .unwrap_or(&shared.config.default_tenant);

    // The request executes on this thread once its turn comes; a contended
    // one waits here for it.
    match shared.server.execute(tenant, query, budget) {
        // A partial outcome carries no bindings, so a `200` would pass it
        // off as a complete, empty answer. The partial is the client's
        // budget running out during execution, answered like
        // `DeadlineExpired` running out queued.
        Ok(outcome) if !outcome.status.is_complete() => Response::error(
            out,
            504,
            &format!(
                "query {:?} after {:?}: a partial answer is not served",
                outcome.status, outcome.elapsed
            ),
        ),
        Ok(outcome) => answer_body(&outcome, format, out, memo),
        Err(e) => Response::from_error(out, &e),
    }
}

/// The body of a `200` answer: the body memoized on the outcome's shared
/// `Bindings` when there is one for this format and header (into `memo`,
/// not copied), otherwise a fresh serialization into `out` — which the
/// rows keep if it is their second one (see
/// [`amber::QueryOutcome::offer_wire_body`]) and it is no larger than
/// [`MAX_RETAINED_BODY_BYTES`].
fn answer_body(
    outcome: &amber::QueryOutcome,
    format: Format,
    out: &mut String,
    memo: &mut Option<Arc<str>>,
) -> Response {
    let tag = format as u8;
    if let Some(body) = outcome.wire_body(tag) {
        *memo = Some(Arc::clone(body));
        http_metrics().bodies_memoized.inc();
        return Response::ok(format.content_type());
    }
    let started = Instant::now();
    match format {
        Format::Json => results::sparql_json_into(out, outcome),
        Format::Tsv => results::sparql_tsv_into(out, outcome),
    }
    let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    let metrics = http_metrics();
    metrics.serialize_us.observe(us);
    metrics.bodies_serialized.inc();
    if out.len() <= MAX_RETAINED_BODY_BYTES {
        outcome.offer_wire_body(tag, out);
    }
    Response::ok(format.content_type())
}

fn metrics_endpoint(head: &RequestHead, out: &mut String) -> Response {
    if head.method != "GET" {
        return Response::error(out, 405, "use GET").with_header("Allow", "GET".to_string());
    }
    out.push_str(&amber_obs::snapshot().render_prometheus());
    Response::ok("text/plain; version=0.0.4")
}

/// Serializes the tests that move or read the process-wide result-body
/// series (`amber_http_result_bodies_total`, `amber_result_body_bytes`):
/// the registry is shared by every test in this binary.
#[cfg(test)]
fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber::AmberEngine;
    use amber_serve::ServeConfig;
    use std::net::Shutdown;

    const DATA: &str = r#"
<http://e/a> <http://e/p> <http://e/b> .
<http://e/b> <http://e/p> <http://e/c> .
<http://e/b> <http://e/q> "hi there"@en .
"#;
    const EDGE: &str = "SELECT ?x ?y WHERE { ?x <http://e/p> ?y . }";

    fn start_http(serve: ServeConfig, http: HttpConfig) -> HttpServer {
        start_http_on(DATA, serve, http)
    }

    fn start_http_on(data: &str, serve: ServeConfig, http: HttpConfig) -> HttpServer {
        let engine = Arc::new(AmberEngine::load_ntriples(data).unwrap());
        HttpServer::start(Server::start(engine, serve), http).unwrap()
    }

    fn start_default() -> HttpServer {
        start_http(ServeConfig::default(), HttpConfig::default())
    }

    /// Status, lower-cased headers, body.
    type Reply = (u16, Vec<(String, String)>, String);

    /// Read one `Content-Length`-framed response off the stream.
    fn read_response(stream: &mut TcpStream) -> Reply {
        let mut buf = Vec::new();
        let mut tmp = [0u8; 1024];
        let head_end = loop {
            if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            let n = stream.read(&mut tmp).expect("response head");
            assert!(n > 0, "connection closed before a response arrived");
            buf.extend_from_slice(&tmp[..n]);
        };
        let head = String::from_utf8(buf[..head_end - 4].to_vec()).unwrap();
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .unwrap()
            .split(' ')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let headers: Vec<(String, String)> = lines
            .map(|l| {
                let (k, v) = l.split_once(':').unwrap();
                (k.trim().to_ascii_lowercase(), v.trim().to_string())
            })
            .collect();
        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse().unwrap())
            .unwrap_or(0);
        while buf.len() < head_end + len {
            let n = stream.read(&mut tmp).expect("response body");
            assert!(n > 0, "connection closed mid-body");
            buf.extend_from_slice(&tmp[..n]);
        }
        let body = String::from_utf8(buf[head_end..head_end + len].to_vec()).unwrap();
        (status, headers, body)
    }

    fn send(addr: SocketAddr, request: &str) -> Reply {
        send_bytes(addr, request.as_bytes())
    }

    fn send_bytes(addr: SocketAddr, request: &[u8]) -> Reply {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(request).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        read_response(&mut stream)
    }

    fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn get_returns_sparql_json() {
        let http = start_default();
        let (status, headers, body) = send(
            http.local_addr(),
            "GET /sparql?query=SELECT%20%3Fx%20%3Fy%20WHERE%20%7B%20%3Fx%20%3Chttp%3A%2F%2Fe%2Fp%3E%20%3Fy%20.%20%7D HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            header(&headers, "content-type"),
            Some("application/sparql-results+json")
        );
        assert!(
            body.starts_with("{\"head\":{\"vars\":[\"x\",\"y\"]}"),
            "{body}"
        );
        assert!(
            body.contains("{\"type\":\"uri\",\"value\":\"http://e/a\"}")
                && body.contains("{\"type\":\"uri\",\"value\":\"http://e/c\"}"),
            "{body}"
        );
    }

    #[test]
    fn post_bodies_urlencoded_and_direct() {
        let http = start_default();
        let form = "query=SELECT%20%3Fx%20%3Fy%20WHERE%20%7B%20%3Fx%20%3Chttp%3A%2F%2Fe%2Fp%3E%20%3Fy%20.%20%7D";
        let (status, _, form_body) = send(
            http.local_addr(),
            &format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{form}",
                form.len()
            ),
        );
        assert_eq!(status, 200, "{form_body}");
        let (status, _, direct_body) = send(
            http.local_addr(),
            &format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{EDGE}",
                EDGE.len()
            ),
        );
        assert_eq!(status, 200, "{direct_body}");
        assert_eq!(
            form_body, direct_body,
            "both POST bodies run the same query"
        );
    }

    #[test]
    fn accept_negotiates_tsv() {
        let http = start_default();
        let (status, headers, body) = send(
            http.local_addr(),
            &format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\nAccept: text/tab-separated-values\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{EDGE}",
                EDGE.len()
            ),
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            header(&headers, "content-type"),
            Some("text/tab-separated-values; charset=utf-8")
        );
        assert!(body.starts_with("?x\t?y\n"), "{body}");
        assert!(body.contains("<http://e/a>\t<http://e/b>"), "{body}");
        assert!(body.contains("<http://e/b>\t<http://e/c>"), "{body}");
        http.shutdown();
    }

    #[test]
    fn tenant_header_routes_to_that_tenant() {
        let http = start_default();
        let (status, _, _) = send(
            http.local_addr(),
            &format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\nX-Amber-Tenant: alice\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{EDGE}",
                EDGE.len()
            ),
        );
        assert_eq!(status, 200);
        let (status, _, _) = send(
            http.local_addr(),
            &format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{EDGE}",
                EDGE.len()
            ),
        );
        assert_eq!(status, 200);
        let report = http.shutdown();
        assert_eq!(report.served_for("alice"), 1);
        assert_eq!(report.served_for("public"), 1);
    }

    #[test]
    fn protocol_errors_are_mapped() {
        let http = start_default();
        let addr = http.local_addr();
        // Missing query.
        let (status, _, body) = send(addr, "GET /sparql HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("query"), "{body}");
        // Unparseable SPARQL → engine parse error → 400.
        let (status, _, _) = send(addr, "GET /sparql?query=nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 400);
        // Bad timeout value.
        let (status, _, body) = send(
            addr,
            "GET /sparql?query=x&timeout=soon HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert_eq!(status, 400);
        assert!(body.contains("timeout"), "{body}");
        // Unsupported method.
        let (status, headers, _) = send(addr, "PUT /sparql HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 405);
        assert_eq!(header(&headers, "allow"), Some("GET, POST"));
        // Unknown path.
        let (status, _, _) = send(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 404);
        // Unsupported POST media type.
        let (status, _, _) = send(
            addr,
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: text/plain\r\nContent-Length: 1\r\n\r\nx",
        );
        assert_eq!(status, 415);
        // Unsatisfiable Accept.
        let (status, _, _) = send(
            addr,
            "GET /sparql?query=x HTTP/1.1\r\nHost: t\r\nAccept: application/xml\r\n\r\n",
        );
        assert_eq!(status, 406);
        http.shutdown();
    }

    #[test]
    fn malformed_heads_are_rejected_with_typed_statuses() {
        let http = start_default();
        let addr = http.local_addr();
        let (status, _, _) = send(addr, "garbage\r\n\r\n");
        assert_eq!(status, 400);
        let (status, _, _) = send(addr, "GET / HTTP/2.0\r\nHost: t\r\n\r\n");
        assert_eq!(status, 505);
        let huge = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(10_000));
        let (status, _, _) = send(addr, &huge);
        assert_eq!(status, 431);
        let (status, _, _) = send(
            addr,
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Length: nope\r\n\r\n",
        );
        assert_eq!(status, 400);
        let (status, _, _) = send(
            addr,
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Length: 99999999\r\n\r\n",
        );
        assert_eq!(status, 413);
        http.shutdown();
    }

    #[test]
    fn slow_requests_answer_408() {
        let http = start_http(
            ServeConfig::default(),
            HttpConfig {
                read_deadline: Duration::from_millis(300),
                ..HttpConfig::default()
            },
        );
        let mut stream = TcpStream::connect(http.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(b"GET /spar").unwrap(); // …and never finish
        let (status, _, _) = read_response(&mut stream);
        assert_eq!(status, 408);
        http.shutdown();
    }

    #[test]
    fn overload_maps_to_503_with_retry_after() {
        let http = start_http(
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServeConfig::default()
            },
            HttpConfig::default(),
        );
        // Fill the only queue slot with a ticket nobody redeems yet.
        let pending = http.server().submit_sparql("filler", EDGE).unwrap();
        let (status, headers, body) = send(
            http.local_addr(),
            "GET /sparql?query=SELECT%20%3Fx%20%3Fy%20WHERE%20%7B%20%3Fx%20%3Chttp%3A%2F%2Fe%2Fp%3E%20%3Fy%20.%20%7D HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert_eq!(status, 503, "{body}");
        assert!(
            header(&headers, "retry-after")
                .and_then(|v| v.parse::<u64>().ok())
                .is_some_and(|v| v >= 1),
            "missing Retry-After: {headers:?}"
        );
        assert!(body.contains("overloaded"), "{body}");
        pending.wait().unwrap();
        http.shutdown();
    }

    #[test]
    fn timeout_parameter_is_a_budget() {
        let http = start_slow_capable();
        let slow = slow_request_in_flight(&http, 300);
        // Queued behind the same tenant's slow request: a 1ms budget
        // expires before its turn comes → 504, with no engine work.
        let (status, _, body) = send(http.local_addr(), &post("slow", FAST, 1));
        assert_eq!(status, 504, "{body}");
        assert!(body.contains("deadline"), "{body}");
        let (status, _, body) = slow.join().unwrap();
        assert_eq!(status, 504, "its budget stops it: {body}");
        let report = http.shutdown();
        assert_eq!(report.deadline_shed, 1);
        assert_eq!(report.served_for("slow"), 1);
    }

    #[test]
    fn metrics_endpoint_renders_the_unified_registry() {
        let http = start_default();
        let (status, _, _) = send(
            http.local_addr(),
            &format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{EDGE}",
                EDGE.len()
            ),
        );
        assert_eq!(status, 200);
        let (status, headers, body) = send(
            http.local_addr(),
            "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert_eq!(status, 200);
        assert_eq!(
            header(&headers, "content-type"),
            Some("text/plain; version=0.0.4")
        );
        assert!(body.contains("amber_serve_requests_total"), "{body}");
        assert!(
            body.contains("amber_http_requests_total{endpoint=\"sparql\"}"),
            "{body}"
        );
        // The wire path reports what it sent and what serializing cost:
        // the 200 above is at least its head plus one JSON body.
        let sent = body
            .lines()
            .find_map(|l| l.strip_prefix("amber_http_response_bytes_total "))
            .and_then(|v| v.parse::<u64>().ok());
        assert!(sent.is_some_and(|v| v > 100), "{body}");
        assert!(body.contains("amber_http_serialize_us_count"), "{body}");
        // Same renderer as the embedded snapshot.
        let direct = amber_obs::snapshot().render_prometheus();
        assert!(direct.contains("amber_http_requests_total"));
        let (status, _, _) = send(
            http.local_addr(),
            "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert_eq!(status, 405);
        http.shutdown();
    }

    #[test]
    fn negotiate_skips_ranges_refused_with_q_zero() {
        use Format::{Json, Tsv};
        let cases = [
            (
                "application/sparql-results+json;q=0, text/tab-separated-values",
                Some(Tsv),
            ),
            (
                "application/sparql-results+json; q=0.0 , text/tab-separated-values",
                Some(Tsv),
            ),
            ("application/json;Q=0.000,text/*", Some(Tsv)),
            (
                "text/tab-separated-values;charset=utf-8;q=0, */*",
                Some(Json),
            ),
            // A non-zero q keeps the range and does not reorder.
            (
                "application/sparql-results+json;q=0.5, text/tab-separated-values",
                Some(Json),
            ),
            (
                "text/tab-separated-values;q=0.1, application/json;q=1",
                Some(Tsv),
            ),
            // A malformed q does not parse to 0: the range stays.
            (
                "application/sparql-results+json;q=zero, text/tab-separated-values",
                Some(Json),
            ),
            (
                "application/sparql-results+json;q=, text/tab-separated-values",
                Some(Json),
            ),
            (
                "application/sparql-results+json;q, text/tab-separated-values",
                Some(Json),
            ),
            // Everything supported refused: 406.
            ("text/tab-separated-values;q=0", None),
            ("application/xml, */*;q=0.0", None),
        ];
        for (accept, want) in cases {
            assert_eq!(negotiate(Some(accept)), want, "{accept}");
        }
        assert_eq!(negotiate(None), Some(Json));
    }

    #[test]
    fn an_error_after_a_memo_served_answer_carries_only_its_own_text() {
        let _serial = crate::registry_lock();
        let memoized = || {
            amber_obs::snapshot()
                .counter_value("amber_http_result_bodies_total", &[("source", "memoized")])
        };
        let before = memoized();
        let http = start_default();
        let query = format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{EDGE}",
            EDGE.len()
        );
        let garbage = "garbage\r\n\r\n";
        let oversized = "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Length: 99999999\r\n\r\n";
        let garbage_text = amber_util::http::parse_request_head(garbage.as_bytes(), 8192)
            .unwrap_err()
            .to_string();
        let mut expected_body = None;
        for (refused, status, text) in [
            (garbage, 400, garbage_text.as_str()),
            (oversized, 413, "request body too large"),
        ] {
            let mut stream = TcpStream::connect(http.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            // Serialized, serialized and memoized, then sent from the memo
            // (the memo outlives the connection: it is on the cached rows).
            for _ in 0..3 {
                stream.write_all(query.as_bytes()).unwrap();
                let (got, _, body) = read_response(&mut stream);
                assert_eq!(got, 200, "{body}");
                assert_eq!(expected_body.get_or_insert_with(|| body.clone()), &body);
            }
            stream.write_all(refused.as_bytes()).unwrap();
            let (got, headers, body) = read_response(&mut stream);
            assert_eq!(got, status, "{body}");
            assert_eq!(body, format!("{text}\n"));
            assert_eq!(
                header(&headers, "content-length"),
                Some(body.len().to_string().as_str())
            );
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).unwrap();
            assert!(
                rest.is_empty(),
                "{} stray bytes after the refusal",
                rest.len()
            );
        }
        assert!(memoized() > before, "no answer was sent from a memo");
        http.shutdown();
    }

    #[test]
    fn keep_alive_serves_sequential_requests() {
        let http = start_default();
        let mut stream = TcpStream::connect(http.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let request = format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{EDGE}",
            EDGE.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let (status, headers, first) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "connection"), Some("keep-alive"));
        stream.write_all(request.as_bytes()).unwrap();
        let (status, _, second) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(first, second);
        // Third request asks to close; the server honors it.
        let closing = format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{EDGE}",
            EDGE.len()
        );
        stream.write_all(closing.as_bytes()).unwrap();
        let (status, headers, _) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "connection"), Some("close"));
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "server must close after Connection: close");
        http.shutdown();
    }

    #[test]
    fn partial_writes_resume_where_the_kernel_stopped() {
        /// Accepts at most `step` bytes per call, across both slices of a
        /// vectored write, and fails the first call with `Interrupted`.
        struct Trickle {
            step: usize,
            calls: usize,
            got: Vec<u8>,
        }
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
                self.calls += 1;
                if self.calls == 1 {
                    return Err(ErrorKind::Interrupted.into());
                }
                let mut left = self.step;
                for buf in bufs {
                    let n = left.min(buf.len());
                    self.got.extend_from_slice(&buf[..n]);
                    left -= n;
                }
                Ok(self.step - left)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (head, body) = (b"HEAD-BYTES\r\n\r\n".as_slice(), b"the body".as_slice());
        // Steps that end inside the head, on its last byte, inside the
        // body, and past everything at once.
        for step in [1, 3, head.len(), head.len() + 2, 1000] {
            let mut sink = Trickle {
                step,
                calls: 0,
                got: Vec::new(),
            };
            write_response(&mut sink, head, body).unwrap();
            assert_eq!(sink.got, [head, body].concat(), "step {step}");
        }
        // A peer that takes nothing is an error, not a spin.
        let mut stuck = Trickle {
            step: 0,
            calls: 0,
            got: Vec::new(),
        };
        let err = write_response(&mut stuck, head, body).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let http = start_default();
        let mut stream = TcpStream::connect(http.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // Two requests in one write: the second waits in the request
        // buffer behind the first and must survive its removal.
        let query = format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{EDGE}",
            EDGE.len()
        );
        let both = format!("{query}GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
        stream.write_all(both.as_bytes()).unwrap();
        let mut wire = String::new();
        stream.read_to_string(&mut wire).unwrap();
        let (first, second) = wire
            .split_once("HTTP/1.1 404 ")
            .expect("the second request is answered too");
        assert!(first.starts_with("HTTP/1.1 200 "), "{wire}");
        assert!(first.ends_with("]}}"), "{wire}");
        assert!(first.contains("http://e/c"), "{wire}");
        assert!(second.contains("Connection: close"), "{wire}");
        http.shutdown();
    }

    #[test]
    fn an_empty_line_after_a_post_body_is_skipped() {
        // Old clients follow a POST body with a CRLF (RFC 9112 §2.2). On
        // a keep-alive connection it arrives ahead of the next request,
        // which must still be answered.
        let http = start_default();
        let mut stream = TcpStream::connect(http.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let post = format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{EDGE}\r\n",
            EDGE.len()
        );
        stream.write_all(post.as_bytes()).unwrap();
        let (status, _, body) = read_response(&mut stream);
        assert_eq!(status, 200, "{body}");
        stream
            .write_all(b"GET /sparql?query=SELECT%20%3Fx%20%3Fy%20WHERE%20%7B%20%3Fx%20%3Chttp%3A%2F%2Fe%2Fp%3E%20%3Fy%20.%20%7D HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, headers, body) = read_response(&mut stream);
        assert_eq!(status, 200, "{body}");
        assert_eq!(header(&headers, "connection"), Some("keep-alive"));
        http.shutdown();
    }

    #[test]
    fn a_body_at_the_ceiling_is_read_whole() {
        let http = start_default();
        // The query padded with spaces to exactly `max_body_bytes`, sent
        // in pieces so the request buffer grows several times mid-body.
        let max = HttpConfig::default().max_body_bytes;
        let body = format!("{EDGE}{}", " ".repeat(max - EDGE.len()));
        let head = format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {max}\r\n\r\n"
        );
        let mut stream = TcpStream::connect(http.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(head.as_bytes()).unwrap();
        for piece in body.as_bytes().chunks(100_000) {
            stream.write_all(piece).unwrap();
        }
        let (status, _, padded) = read_response(&mut stream);
        assert_eq!(status, 200, "{padded}");
        // Same connection, same query unpadded: same answer.
        let plain = format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{EDGE}",
            EDGE.len()
        );
        stream.write_all(plain.as_bytes()).unwrap();
        let (status, _, unpadded) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(padded, unpadded);
        http.shutdown();
    }

    #[test]
    fn shutdown_drains_idle_connections_and_pins_zero_copies() {
        let http = start_default();
        // Same query twice: the second answer is a verbatim result-cache
        // hit, its rows the cached `Arc` allocation (`Bindings` clones
        // share, so no row is copied onto the wire path).
        for _ in 0..2 {
            let (status, _, _) = send(
                http.local_addr(),
                &format!(
                    "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{EDGE}",
                    EDGE.len()
                ),
            );
            assert_eq!(status, 200);
        }
        // Leave an idle keep-alive connection open: drain must not hang.
        let idle = TcpStream::connect(http.local_addr()).unwrap();
        let report = http.shutdown();
        drop(idle);
        assert_eq!(report.served_for("public"), 2);
        assert!(
            report.result_stats.hits >= 1,
            "second request should hit the result cache: {:?}",
            report.result_stats
        );
    }
    /// A server whose `SLOW` request stays in flight until its `timeout=`
    /// budget stops it: a six-cycle over a complete digraph, count-only so
    /// its ~30^6 embeddings are never materialized.
    fn start_slow_capable() -> HttpServer {
        let mut clique = String::new();
        for a in 0..30 {
            for b in (0..30).filter(|b| *b != a) {
                clique.push_str(&format!("<http://k/n{a}> <http://k/p> <http://k/n{b}> .\n"));
            }
        }
        start_http_on(
            &clique,
            ServeConfig {
                workers: 2,
                options: amber::ExecOptions::batch().counting(),
                ..ServeConfig::default()
            },
            HttpConfig::default(),
        )
    }

    const SLOW: &str = "SELECT * WHERE { ?a <http://k/p> ?b . ?b <http://k/p> ?c . \
        ?c <http://k/p> ?d . ?d <http://k/p> ?e . ?e <http://k/p> ?f . ?f <http://k/p> ?a . }";
    const FAST: &str = "SELECT * WHERE { <http://k/n0> <http://k/p> ?x . }";

    fn post(tenant: &str, query: &str, timeout_ms: u64) -> String {
        format!(
            "POST /sparql?timeout={timeout_ms} HTTP/1.1\r\nHost: t\r\nX-Amber-Tenant: {tenant}\r\n\
             Content-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{query}",
            query.len()
        )
    }

    /// Send `SLOW` on a connection of its own and return once the server
    /// is executing it.
    fn slow_request_in_flight(http: &HttpServer, timeout_ms: u64) -> JoinHandle<Reply> {
        let addr = http.local_addr();
        let client = std::thread::spawn(move || send(addr, &post("slow", SLOW, timeout_ms)));
        let deadline = Instant::now() + Duration::from_secs(30);
        while http.server().inflight() != 1 {
            assert!(Instant::now() < deadline, "never saw the slow request");
            std::thread::yield_now();
        }
        client
    }

    #[test]
    fn a_query_whose_budget_runs_out_executing_answers_504() {
        let http = start_slow_capable();
        let (status, headers, body) = send(http.local_addr(), &post("t", SLOW, 50));
        assert_eq!(status, 504, "{body}");
        assert!(body.contains("TimedOut"), "{body}");
        assert!(
            !body.contains("\"results\""),
            "not a results document: {body}"
        );
        assert_eq!(header(&headers, "retry-after"), None);
        let report = http.shutdown();
        assert_eq!(report.deadline_shed, 0, "it ran, it was not shed queued");
        assert_eq!(report.served_for("t"), 1);
    }

    #[test]
    fn a_slow_request_does_not_hold_up_another_connection() {
        let http = start_slow_capable();
        let slow = slow_request_in_flight(&http, 1_500);
        let (status, _, body) = send(http.local_addr(), &post("fast", FAST, 1_500));
        assert_eq!(status, 200, "{body}");
        // The fast answer is back while the slow request still executes:
        // an exclusive lock around `execute` would have made it wait.
        assert_eq!(
            http.server().inflight(),
            1,
            "the fast request waited for the slow one"
        );
        let (status, _, body) = slow.join().unwrap();
        assert_eq!(status, 504, "its budget stops it: {body}");
        let report = http.shutdown();
        assert_eq!(report.inline_dispatches, 2, "one per connection thread");
        assert_eq!(report.queued_dispatches, 0);
        assert_eq!(report.peak_inflight, 2);
    }

    #[test]
    fn shutdown_waits_for_a_request_running_on_its_connection_thread() {
        let http = start_slow_capable();
        let slow = slow_request_in_flight(&http, 500);
        // The request runs on its connection thread: the drain has to get
        // it from joining that thread before it takes the server.
        let report = http.shutdown();
        assert_eq!(report.served_for("slow"), 1);
        assert_eq!(report.inline_dispatches, 1);
        let (status, headers, body) = slow.join().unwrap();
        assert_eq!(status, 504, "its budget stops it: {body}");
        assert_eq!(header(&headers, "connection"), Some("close"));
    }
}
