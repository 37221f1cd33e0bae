//! Allocation budgets of the request path, and the hygiene of the plan a
//! session reuses.
//!
//! * A seed vertex constrained by constants alone (a single-variable star)
//!   is seeded from its `ProcessVertex` whitelist, read against the stored
//!   synopses one vertex at a time. Walking the synopsis R-tree instead
//!   collects every dominating vertex — a large share of |V| — before the
//!   whitelist cuts it down, and its result alone costs 4 bytes per
//!   vertex. Preparation's bytes are held to a bound that grows with the
//!   whitelist, not with the graph.
//! * A result miss plans into the plan its session keeps: on a warm
//!   session, planning a query allocates at most [`MAX_PLAN_ALLOCATIONS`]
//!   times, and a connection parses a request head and form in at most
//!   [`MAX_PARSE_ALLOCATIONS`].
//! * A served cold request — HTTP parse, admission, compile, plan, search,
//!   materialization, result cache and serialization — allocates at most
//!   [`MAX_SERVED_ALLOCATIONS`] times (release builds: they are what
//!   ships, and debug builds take `debug_assert` paths).
//! * A session that plans query after query answers and explains each one
//!   as a fresh session does, also after a panic in the middle of a plan.
//!
//! This file is its own test binary: the global allocator below counts per
//! thread and per process, and every test takes [`serial`], so no other
//! test of the binary allocates while one counts.

mod constant_star;
mod walk_pool;

use amber::candidates::{process_vertex, Constraint};
use amber::matcher::{ComponentPrep, SearchArenas};
use amber::{AmberEngine, CompiledQuery, ExecOptions, QueryPlan, QueryRequest};
use amber_datagen::Benchmark;
use amber_http::{HttpConfig, HttpServer};
use amber_index::IndexSet;
use amber_multigraph::{QueryGraph, RdfGraph};
use amber_serve::{ServeConfig, Server};
use amber_sparql::parse_select;
use amber_util::fault;
use amber_util::http::{parse_head_spans, Form, HeadSpans};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use walk_pool::walk_pool;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) on every thread.
static PROCESS_CALLS: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes));
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    PROCESS_CALLS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// plain thread-local cells and an atomic, and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One test at a time: the process-wide count must see only its own.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Bytes `f` allocates on this thread, with its result.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let value = f();
    (value, ALLOCATED.with(Cell::get) - before)
}

/// Allocation calls `f` makes on this thread.
fn calls_by(f: impl FnOnce()) -> usize {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

/// Preparation's fixed cost (plans, probe tables, the query synopsis) plus
/// a few words per whitelisted vertex.
const FIXED_BYTES: usize = 2048;
const BYTES_PER_WHITELISTED: usize = 16;

/// Planning a compiled query on a warm session (mean over a walk pool's
/// second pass; ≈ 73 before the session kept its plan).
const MAX_PLAN_ALLOCATIONS: f64 = 2.0;

/// Parsing a request head and its form on a warm connection (17 when
/// every field was a `String`).
const MAX_PARSE_ALLOCATIONS: f64 = 2.0;

/// One served `unique_cold` request at the benchmark's scale, everything
/// in the process counted (139 before).
const MAX_SERVED_ALLOCATIONS: f64 = 45.0;

/// The synopsis-dominating vertices of `?x` in `text` — what the R-tree
/// walk would collect for it.
fn dominating(rdf: &RdfGraph, index: &IndexSet, text: &str) -> usize {
    let qg = QueryGraph::build(&parse_select(text).unwrap(), rdf).unwrap();
    let x = qg.vertex_by_name("x").unwrap();
    index
        .signature
        .candidates(&qg.query_synopsis(x, &mut Vec::new()))
        .len()
}

#[test]
fn preparing_a_constant_star_allocates_by_its_whitelist_not_by_the_graph() {
    let _serial = serial();
    for seed in [1u64, 7, 23] {
        let triples = Benchmark::Dbpedia.generate(2, seed);
        let rdf = RdfGraph::from_triples(&triples);
        let index = IndexSet::build(&rdf);
        // The star the R-tree walk costs most on, among the first twenty.
        let (dominating, text) = constant_star::constant_stars(&triples)
            .take(20)
            .map(|text| (dominating(&rdf, &index, &text), text))
            .max()
            .expect("the data has constant stars");
        let qg = QueryGraph::build(&parse_select(&text).unwrap(), &rdf).unwrap();
        let components = qg.connected_components();
        assert_eq!(components.len(), 1, "seed {seed}: {text}");
        let x = qg.vertex_by_name("x").unwrap();
        let Constraint::Candidates(whitelist) =
            process_vertex(&qg, x, &index, &mut SearchArenas::new())
        else {
            panic!("seed {seed}: ?x is constrained by constants: {text}");
        };
        let bound = FIXED_BYTES + BYTES_PER_WHITELISTED * whitelist.len();
        assert!(
            4 * dominating > bound,
            "seed {seed}: the R-tree walk ({dominating} vertices) fits the bound {bound}"
        );

        let (prep, bytes) = allocated_by(|| {
            ComponentPrep::build(&qg, &index, &components[0], &mut SearchArenas::new())
        });
        assert!(!prep.initial_candidates().is_empty(), "seed {seed}: {text}");
        assert!(
            bytes <= bound,
            "seed {seed}: preparing {text} allocated {bytes} B; the whitelist of {} \
             allows {bound} B ({dominating} vertices dominate its synopsis)",
            whitelist.len()
        );
    }
}

/// The DBpedia-like graph at scale 2 and its walk pool, built once.
fn scale_two() -> &'static (AmberEngine, Vec<String>) {
    static FIXTURE: OnceLock<(AmberEngine, Vec<String>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let engine = AmberEngine::from_triples(&Benchmark::Dbpedia.generate(2, 1));
        let pool = walk_pool(&engine, 1, 768);
        assert!(pool.len() >= 100, "only {} walks admitted", pool.len());
        (engine, pool)
    })
}

#[test]
fn planning_on_a_warm_session_allocates_at_most_twice() {
    let _serial = serial();
    let (engine, pool) = scale_two();
    let compiled: Vec<CompiledQuery> = pool.iter().map(|q| engine.compile(q).unwrap()).collect();
    let mut session = engine.create_session(&ExecOptions::batch());
    for query in &compiled {
        engine.plan_in(query, &mut session).unwrap();
    }
    let (mut total, mut most) = (0, 0);
    for query in &compiled {
        let calls = calls_by(|| {
            engine.plan_in(query, &mut session).unwrap();
        });
        total += calls;
        most = most.max(calls);
    }
    let mean = total as f64 / compiled.len() as f64;
    println!(
        "planning on a warm session: {mean:.2} allocations per query (max {most}) over {} walks",
        compiled.len()
    );
    assert!(
        mean <= MAX_PLAN_ALLOCATIONS,
        "planning allocated {mean:.2} times per query (budget {MAX_PLAN_ALLOCATIONS})"
    );
}

/// The bytes the benchmark's client sends for `query` (its
/// `query_request`): a form `POST` naming a tenant.
fn query_request(tenant: &str, query: &str) -> Vec<u8> {
    let mut body = String::from("query=");
    for &b in query.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                body.push(b as char)
            }
            b' ' => body.push('+'),
            _ => body.push_str(&format!("%{b:02X}")),
        }
    }
    body.push_str("&timeout=2000");
    format!(
        "POST /sparql HTTP/1.1\r\nHost: bench\r\nx-amber-tenant: {tenant}\r\n\
         Content-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[test]
fn parsing_a_head_and_form_on_a_warm_connection_allocates_at_most_twice() {
    let _serial = serial();
    let (_, pool) = scale_two();
    let requests: Vec<Vec<u8>> = (0..pool.len())
        .map(|i| query_request(["c0", "c1"][i % 2], &pool[i]))
        .collect();
    // What a connection does with each request before the engine sees it.
    let (mut spans, mut form) = (HeadSpans::default(), Form::default());
    let mut parse = |bytes: &[u8]| {
        let consumed = parse_head_spans(bytes, 8192, &mut spans).unwrap().unwrap();
        let head = spans.read(bytes);
        let body_len = head.content_length().unwrap().unwrap();
        let body = std::str::from_utf8(&bytes[consumed..consumed + body_len]).unwrap();
        assert!(head
            .media_type()
            .is_some_and(|m| m.eq_ignore_ascii_case("application/x-www-form-urlencoded")));
        form.clear();
        form.extend(body);
        let query = form.get("query").unwrap();
        let tenant = head.header("x-amber-tenant").unwrap();
        let timeout = form.get("timeout").unwrap();
        std::hint::black_box((query, tenant, timeout, head.wants_close()));
    };
    for bytes in &requests {
        parse(bytes);
    }
    let total: usize = requests.iter().map(|bytes| calls_by(|| parse(bytes))).sum();
    let mean = total as f64 / requests.len() as f64;
    println!(
        "HTTP head + form on a warm connection: {mean:.2} allocations per request over {}",
        requests.len()
    );
    assert!(
        mean <= MAX_PARSE_ALLOCATIONS,
        "parsing allocated {mean:.2} times per request (budget {MAX_PARSE_ALLOCATIONS})"
    );
}

/// The patterns of a query text, between its outermost braces.
fn body(text: &str) -> &str {
    &text[text.find('{').unwrap() + 1..text.rfind('}').unwrap()]
}

/// `a`'s and `b`'s patterns as one query, `b`'s variables renamed apart:
/// two or more components, `a`'s first.
fn disconnected(a: &str, b: &str) -> String {
    format!(
        "SELECT * WHERE {{ {} {} }}",
        body(a),
        body(b).replace('?', "?o_")
    )
}

/// The scale-2 walk pool plus variants that change a plan's shape from
/// one query to the next: several components, a statically empty answer,
/// `DISTINCT` and a narrower projection.
fn hygiene_pool() -> &'static [String] {
    static POOL: OnceLock<Vec<String>> = OnceLock::new();
    POOL.get_or_init(|| {
        let (_, walks) = scale_two();
        let walks = &walks[..48];
        let mut pool = walks.to_vec();
        for (i, text) in walks.iter().enumerate() {
            pool.push(disconnected(text, &walks[(i + 1) % walks.len()]));
            pool.push(format!(
                "SELECT * WHERE {{ {} ?x <http://nowhere/p> ?y . }}",
                body(text)
            ));
            pool.push(text.replacen("SELECT", "SELECT DISTINCT", 1));
            let first = text.find('?').unwrap();
            let name: String = text[first..]
                .chars()
                .take_while(|c| *c == '?' || c.is_alphanumeric() || *c == '_')
                .collect();
            pool.push(format!("SELECT {name} WHERE {{ {} }}", body(text)));
        }
        pool
    })
}

/// What a reused and a fresh session must agree on besides the plan: the
/// header, the count and the rows.
type Answer = (Vec<Box<str>>, u128, Vec<Vec<Box<str>>>);

fn answer(outcome: &amber::QueryOutcome) -> Answer {
    assert!(outcome.status.is_complete());
    (
        outcome.variables.clone(),
        outcome.embedding_count,
        outcome.bindings.to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A session that plans query after query into the one plan it keeps
    /// explains and answers every query as a fresh session does: nothing
    /// of the previous query survives into the next.
    #[test]
    fn a_reused_session_plans_as_a_fresh_one(
        picks in prop::collection::vec(0..hygiene_pool().len(), 1..16)
    ) {
        let _serial = serial();
        let (engine, _) = scale_two();
        let pool = hygiene_pool();
        let mut session = engine.create_session(&ExecOptions::default());
        for &i in &picks {
            let text = &pool[i];
            let compiled = engine.compile(text).unwrap();
            let reused_plan = engine.plan_in(&compiled, &mut session).unwrap();
            let reused_plan = QueryPlan::explain_prepared(reused_plan).to_string();
            let reused = engine
                .run_in(&QueryRequest::compiled(&compiled), &mut session)
                .unwrap();
            let fresh_plan = QueryPlan::explain_prepared(&engine.prepare_sparql(text).unwrap());
            let fresh = engine.run(&QueryRequest::sparql(text)).unwrap();
            prop_assert_eq!(reused_plan, fresh_plan.to_string(), "{} after {:?}", text, picks);
            prop_assert_eq!(answer(&reused), answer(&fresh), "{} after {:?}", text, picks);
        }
    }
}

#[test]
fn a_panic_in_the_middle_of_a_plan_leaves_the_session_answering() {
    let _serial = serial();
    let (engine, walks) = scale_two();
    // `ProcessVertex` walks the index (the injection point) for an
    // attribute set or a multi-type IRI constraint.
    let probes = |text: &String| {
        let qg = QueryGraph::build(&parse_select(text).unwrap(), engine.rdf()).unwrap();
        qg.vertex_ids().any(|u| {
            let vertex = qg.vertex(u);
            !vertex.attrs.is_empty() || vertex.iri_constraints.iter().any(|c| c.types.len() > 1)
        })
    };
    // A first component planned without a probe, then one that probes:
    // the panic lands with part of the plan built.
    let quiet = walks
        .iter()
        .find(|t| !probes(t))
        .expect("a walk without probes");
    let probing = walks
        .iter()
        .find(|t| probes(t))
        .expect("a walk with a probe");
    let text = disconnected(quiet, probing);
    let compiled = engine.compile(&text).unwrap();
    let expected = answer(&engine.run(&QueryRequest::sparql(&text)).unwrap());
    let mut session = engine.create_session(&ExecOptions::default());
    engine
        .run_in(&QueryRequest::sparql(&walks[0]), &mut session)
        .unwrap();
    {
        let _chaos = fault::override_spec("7:index-probe=panic@1").unwrap();
        let failed = engine.run_in(&QueryRequest::compiled(&compiled), &mut session);
        assert!(
            matches!(
                failed,
                Err(amber::Error::Engine(amber::EngineError::Internal { .. }))
            ),
            "the injected panic must surface as Internal: {failed:?}"
        );
        assert!(engine.plan_in(&compiled, &mut session).is_err());
    }
    // The same session plans and answers this query and others correctly.
    for query in [quiet, probing, &text, &walks[1]] {
        let again = engine
            .run_in(&QueryRequest::sparql(query), &mut session)
            .unwrap();
        assert_eq!(
            answer(&again),
            answer(&engine.run(&QueryRequest::sparql(query)).unwrap()),
            "{query}"
        );
    }
    let again = engine
        .run_in(&QueryRequest::compiled(&compiled), &mut session)
        .unwrap();
    assert_eq!(answer(&again), expected);
}

/// Read one response off `stream` into `buf` (its capacity is never
/// exceeded, so this allocates nothing); the status and the body.
fn read_response<'b>(stream: &mut TcpStream, buf: &'b mut Vec<u8>) -> (u16, &'b [u8]) {
    buf.clear();
    let capacity = buf.capacity();
    buf.resize(capacity, 0);
    let mut filled = 0;
    let (head_end, body_len) = loop {
        let n = stream.read(&mut buf[filled..]).unwrap();
        assert!(n > 0, "the server closed the connection");
        filled += n;
        let Some(end) = buf[..filled].windows(4).position(|w| w == b"\r\n\r\n") else {
            continue;
        };
        let head = &buf[..end];
        let name = b"Content-Length: ";
        let at = head
            .windows(name.len())
            .position(|w| w == name)
            .expect("a framed response")
            + name.len();
        let len = head[at..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .fold(0, |n, b| n * 10 + usize::from(b - b'0'));
        break (end + 4, len);
    };
    assert!(
        head_end + body_len <= buf.len(),
        "a response over the buffer"
    );
    while filled < head_end + body_len {
        let n = stream.read(&mut buf[filled..]).unwrap();
        assert!(n > 0, "the server closed the connection");
        filled += n;
    }
    let status = buf[9..12]
        .iter()
        .fold(0, |n, b| n * 10 + u16::from(b - b'0'));
    (status, &buf[head_end..head_end + body_len])
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "pins the release build's counts: run with --release"
)]
fn a_served_cold_request_allocates_at_most_45_times() {
    let _serial = serial();
    // The benchmark's `unique_cold`: 768 walks over the DBpedia-like graph
    // at scale 25, seed 1, alternating between two tenants, so each
    // tenant's 384 queries overflow its 256-entry result cache.
    let engine = Arc::new(AmberEngine::from_triples(
        &Benchmark::Dbpedia.generate(25, 1),
    ));
    let pool = walk_pool(&engine, 1, 768);
    assert_eq!(pool.len(), 768);
    let requests: Vec<Vec<u8>> = (0..pool.len())
        .map(|i| query_request(["c0", "c1"][i % 2], &pool[i]))
        .collect();
    let server = Server::start(Arc::clone(&engine), ServeConfig::default());
    let http = HttpServer::start(server, HttpConfig::default()).unwrap();
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut buf = Vec::with_capacity(8 << 20);
    let mut serve = |stream: &mut TcpStream, bytes: &[u8]| {
        stream.write_all(bytes).unwrap();
        let (status, body) = read_response(stream, &mut buf);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(body));
    };
    // One pass warms the connection, the sessions and their result caches.
    for bytes in &requests {
        serve(&mut stream, bytes);
    }
    let passes = 2;
    let before = PROCESS_CALLS.load(Ordering::Relaxed);
    for _ in 0..passes {
        for bytes in &requests {
            serve(&mut stream, bytes);
        }
    }
    let calls = PROCESS_CALLS.load(Ordering::Relaxed) - before;
    let mean = calls as f64 / (passes * requests.len()) as f64;
    println!(
        "a served cold request: {mean:.2} allocations (every thread) over {} requests",
        passes * requests.len()
    );
    drop(stream);
    http.shutdown();
    assert!(
        mean <= MAX_SERVED_ALLOCATIONS,
        "a served cold request allocated {mean:.2} times (budget {MAX_SERVED_ALLOCATIONS})"
    );
}
