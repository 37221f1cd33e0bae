//! End-to-end smoke over the HTTP front-end: a real TCP client runs
//! queries through `GET /sparql` and `POST /sparql`, receives
//! spec-shaped SPARQL JSON and TSV bodies byte-identical to the in-process
//! serializers over the same engine, observes backpressure as
//! `503 + Retry-After`, scrapes `/metrics`, and the graceful drain pins
//! the zero-copy counter at 0. Multi-megabyte bodies arrive whole, the
//! buffers a connection reuses between responses leak nothing from one
//! into the next, a repeat sent from its memoized body is the same bytes
//! as a fresh serialization, and a chunked request is refused with `501`
//! and a close instead of being read as a 0-byte body.

use amber::{AmberEngine, QueryRequest};
use amber_http::{results, HttpConfig, HttpServer};
use amber_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The tests here that put `200` result bodies on the wire take turns:
/// one of them reads the process-wide `amber_http_result_bodies_total`.
fn wire_turn() -> MutexGuard<'static, ()> {
    static WIRE: Mutex<()> = Mutex::new(());
    WIRE.lock().unwrap_or_else(|e| e.into_inner())
}

const DATA: &str = r#"
<http://z/a> <http://z/follows> <http://z/b> .
<http://z/b> <http://z/follows> <http://z/c> .
<http://z/c> <http://z/follows> <http://z/a> .
<http://z/a> <http://z/likes> <http://z/c> .
"#;
const QUERY: &str = "SELECT ?x ?y WHERE { ?x <http://z/follows> ?y . }";
const QUERY_ENC: &str =
    "SELECT%20%3Fx%20%3Fy%20WHERE%20%7B%20%3Fx%20%3Chttp%3A%2F%2Fz%2Ffollows%3E%20%3Fy%20.%20%7D";

fn read_response(stream: &mut TcpStream) -> (u16, Vec<(String, String)>, String) {
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
    (
        status,
        headers,
        String::from_utf8(buf[head_end..head_end + len].to_vec()).unwrap(),
    )
}

fn send(addr: SocketAddr, request: &str) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
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
fn http_round_trip_matches_the_embedded_engine() {
    let _turn = wire_turn();
    let engine = Arc::new(AmberEngine::load_ntriples(DATA).unwrap());
    let http = HttpServer::start(
        Server::start(Arc::clone(&engine), ServeConfig::default()),
        HttpConfig::default(),
    )
    .unwrap();
    let addr = http.local_addr();

    // The unified facade is the reference: the wire bodies must be
    // byte-identical to serializing engine.run() in-process.
    let reference = engine.run(&QueryRequest::sparql(QUERY)).unwrap();
    assert_eq!(reference.embedding_count, 3);

    let (status, headers, body) = send(
        addr,
        &format!("GET /sparql?query={QUERY_ENC} HTTP/1.1\r\nHost: t\r\n\r\n"),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        header(&headers, "content-type"),
        Some("application/sparql-results+json")
    );
    assert_eq!(body, results::sparql_json(&reference));

    let (status, headers, body) = send(
        addr,
        &format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\nAccept: text/tab-separated-values\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{QUERY}",
            QUERY.len()
        ),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/tab-separated-values; charset=utf-8")
    );
    assert_eq!(body, results::sparql_tsv(&reference));

    // /metrics serves the unified registry.
    let (status, _, metrics) = send(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(metrics.contains("amber_http_requests_total"), "{metrics}");
    // Table 5 from the HTTP surface: what the load cost per stage and what
    // each structure holds, published when a server starts. (The registry
    // is process-wide and the other tests here serve other engines, so the
    // values are checked for presence, not equality.)
    let offline = engine.offline_stats();
    for (stage, _) in offline.stages() {
        let series = format!("amber_offline_stage_us{{stage=\"{stage}\"}} ");
        assert!(metrics.contains(&series), "{series} missing from {metrics}");
    }
    for (part, _) in offline.parts() {
        let series = format!("amber_resident_bytes{{part=\"{part}\"}} ");
        let sample = metrics
            .lines()
            .find_map(|line| line.strip_prefix(&series))
            .unwrap_or_else(|| panic!("{series} missing from {metrics}"));
        assert!(sample.parse::<u64>().is_ok(), "{series}{sample}");
    }

    let report = http.shutdown();
    assert_eq!(report.served_for("public"), 2);
}

#[test]
fn backpressure_surfaces_as_503_with_retry_after() {
    let engine = Arc::new(AmberEngine::load_ntriples(DATA).unwrap());
    let server = Server::start(
        engine,
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        },
    );
    let http = HttpServer::start(server, HttpConfig::default()).unwrap();
    // Fill the only queue slot with a ticket nobody redeems yet.
    let pending = http.server().submit_sparql("filler", QUERY).unwrap();
    let (status, headers, body) = send(
        http.local_addr(),
        &format!("GET /sparql?query={QUERY_ENC} HTTP/1.1\r\nHost: t\r\n\r\n"),
    );
    assert_eq!(status, 503, "{body}");
    let retry: u64 = header(&headers, "retry-after")
        .expect("503 carries Retry-After")
        .parse()
        .expect("Retry-After is whole seconds");
    assert!(retry >= 1);
    pending.wait().unwrap();
    http.shutdown();
}

/// Write one request on an open keep-alive connection and read its answer.
fn exchange(stream: &mut TcpStream, request: &str) -> (u16, Vec<(String, String)>, String) {
    stream.write_all(request.as_bytes()).unwrap();
    read_response(stream)
}

fn post_query(query: &str) -> String {
    format!(
        "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{query}",
        query.len()
    )
}

#[test]
fn chunked_request_bodies_get_501_and_the_connection_closes() {
    let engine = Arc::new(AmberEngine::load_ntriples(DATA).unwrap());
    let http = HttpServer::start(
        Server::start(engine, ServeConfig::default()),
        HttpConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // The chunk carries a complete request of its own. A server that
    // framed this POST as a 0-byte body would answer it as the next
    // request on the connection.
    let smuggled = post_query(QUERY);
    let request = format!(
        "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\n\
         Transfer-Encoding: chunked\r\n\r\n{:x}\r\n{smuggled}\r\n0\r\n\r\n",
        smuggled.len()
    );
    let (status, headers, body) = exchange(&mut stream, &request);
    assert_eq!(status, 501, "{body}");
    assert_eq!(header(&headers, "connection"), Some("close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "nothing may follow the refusal: {}",
        String::from_utf8_lossy(&rest)
    );
    let report = http.shutdown();
    assert_eq!(report.served(), 0, "neither request reached the engine");
}

#[test]
fn large_bodies_arrive_whole_and_reused_buffers_carry_nothing_over() {
    let _turn = wire_turn();
    // One hub with 300 `p` edges and 80 `q` edges: the two stars below
    // multiply out (bag semantics) to 24,000 and 90,000 rows.
    let mut data = String::new();
    for i in 0..300 {
        data.push_str(&format!("<http://z/hub> <http://z/p> <http://z/o{i}> .\n"));
    }
    for i in 0..80 {
        data.push_str(&format!("<http://z/hub> <http://z/q> <http://z/t{i}> .\n"));
    }
    const MEDIUM: &str = "SELECT ?x ?y ?z WHERE { ?x <http://z/p> ?y . ?x <http://z/q> ?z . }";
    const LARGE: &str = "SELECT ?x ?y ?z WHERE { ?x <http://z/p> ?y . ?x <http://z/p> ?z . }";
    const SMALL: &str = "SELECT ?x ?z WHERE { ?x <http://z/q> ?z . }";

    let engine = Arc::new(AmberEngine::load_ntriples(&data).unwrap());
    let expected =
        |query: &str| results::sparql_json(&engine.run(&QueryRequest::sparql(query)).unwrap());
    let (medium, large, small) = (expected(MEDIUM), expected(LARGE), expected(SMALL));
    // Larger than the loopback socket buffers, so the server's write
    // cannot finish before this client starts reading; `large` is also
    // past what a connection keeps allocated afterwards.
    assert!(medium.len() > 2_000_000, "{}", medium.len());
    assert!(large.len() > 8 << 20, "{}", large.len());
    assert!(small.len() < 10_000, "{}", small.len());

    let http = HttpServer::start(
        Server::start(Arc::clone(&engine), ServeConfig::default()),
        HttpConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    // Every answer on one connection; `read_response` frames on
    // Content-Length, so a wrong length or a stray byte from an earlier,
    // larger body derails the status line of the exchange after it.
    let mut check = |query: &str, want: &str| {
        let (status, headers, body) = exchange(&mut stream, &post_query(query));
        assert_eq!(status, 200);
        assert_eq!(
            header(&headers, "content-length"),
            Some(want.len().to_string().as_str())
        );
        assert!(
            body == want,
            "body of {query} differs ({} bytes)",
            body.len()
        );
    };
    check(MEDIUM, &medium);
    check(SMALL, &small);
    check(LARGE, &large);
    check(SMALL, &small);
    check(MEDIUM, &medium);

    // An error after a large 200 is only its own message.
    let (status, headers, body) = exchange(&mut stream, &post_query("SELECT nonsense"));
    assert_eq!(status, 400);
    assert_eq!(
        header(&headers, "content-length"),
        Some(body.len().to_string().as_str())
    );
    assert!(body.len() < 200 && body.ends_with('\n'), "{body:?}");
    assert!(!body.contains("bindings"), "{body:?}");

    // Close on request; nothing may follow the last body.
    let closing = format!(
        "POST /sparql HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{SMALL}",
        SMALL.len()
    );
    let (status, _, body) = exchange(&mut stream, &closing);
    assert_eq!(status, 200);
    assert!(body == small);
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "{} stray bytes after the last response",
        rest.len()
    );
    http.shutdown();
}

#[test]
fn repeats_are_sent_from_the_memo_byte_for_byte() {
    let _turn = wire_turn();
    let engine = Arc::new(AmberEngine::load_ntriples(DATA).unwrap());
    let reference = engine.run(&QueryRequest::sparql(QUERY)).unwrap();
    let (json, tsv) = (
        results::sparql_json(&reference),
        results::sparql_tsv(&reference),
    );
    let http = HttpServer::start(
        Server::start(Arc::clone(&engine), ServeConfig::default()),
        HttpConfig::default(),
    )
    .unwrap();
    let source = |source: &str| {
        amber_obs::snapshot().counter_value("amber_http_result_bodies_total", &[("source", source)])
    };
    let before = (source("serialized"), source("memoized"));

    let as_json = post_query(QUERY);
    let as_tsv = as_json.replacen(
        "Host: t\r\n",
        "Host: t\r\nAccept: text/tab-separated-values\r\n",
        1,
    );
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let exchanges = [
        (&as_json, &json),
        (&as_json, &json),
        (&as_json, &json),
        (&as_json, &json),
        (&as_tsv, &tsv),
        (&as_tsv, &tsv),
        (&as_json, &json),
    ];
    for (i, (request, want)) in exchanges.into_iter().enumerate() {
        let (status, headers, body) = exchange(&mut stream, request);
        assert_eq!(status, 200, "exchange {i}: {body}");
        assert_eq!(
            header(&headers, "content-length"),
            Some(want.len().to_string().as_str()),
            "exchange {i}"
        );
        assert_eq!(&body, want, "exchange {i}");
    }
    let after = (source("serialized"), source("memoized"));
    // JSON is serialized twice, then memoized: its third and fourth
    // requests and the last one come from the memo. TSV is serialized both
    // times, as the rows' one slot already holds JSON (first writer wins).
    assert_eq!((after.0 - before.0, after.1 - before.1), (4, 3));
    drop(stream);
    let report = http.shutdown();
    assert_eq!(report.served_for("public"), 7);
    // One keep-alive connection never contends with itself: every request
    // runs on its connection thread, and each repeat is a result-cache hit.
    assert_eq!(report.inline_dispatches, 7);
    assert_eq!(report.queued_dispatches, 0);
    assert_eq!(report.result_stats.hits, 6);
}
