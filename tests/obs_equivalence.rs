//! Differential tests pinning the `amber_obs` metrics registry to the
//! per-session views (a session's result-cache `CacheStats`,
//! `queries_executed`, and the `ServeReport`).
//!
//! Every count is added where its event happens, into the session's view
//! and the registry at once (see `crates/core/src/telemetry.rs`); these
//! tests pin that the two agree *exactly*: over batch and concurrent
//! serving workloads, every registry delta equals the corresponding
//! per-session counter, and the cache gauges equal the sum over live
//! sessions at every moment.
//!
//! The registry is process-global, so every test takes [`serial`], which
//! serializes the tests in this binary against each other.

use amber::{
    AmberEngine, EngineError, Error, ExecOptions, QueryRequest, QuerySession, QueryStatus,
};
use amber_datagen::skewed::{self, SkewedConfig};
use amber_http::{HttpConfig, HttpServer};
use amber_obs::MetricsSnapshot;
use amber_serve::{ServeConfig, ServeReport, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// One test at a time: each reads process-wide series exactly.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn demo_engine() -> Arc<AmberEngine> {
    let triples = "\
<http://e/a> <http://e/p> <http://e/b> .\n\
<http://e/b> <http://e/p> <http://e/c> .\n\
<http://e/c> <http://e/q> <http://e/a> .\n";
    Arc::new(AmberEngine::load_ntriples(triples).expect("demo graph parses"))
}

const CHAIN: &str = "SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/p> ?z . }";
const BACK_EDGE: &str = "SELECT * WHERE { ?x <http://e/q> ?y . }";

/// Counter delta between two snapshots.
fn delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> u64 {
    after.counter_value(name, labels) - before.counter_value(name, labels)
}

/// Assert the result cache's registry deltas equal a session's
/// [`amber::CacheStats`] (counters only; the entries/bytes gauges carry
/// current state, not deltas).
fn assert_cache_family(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    legacy: &amber::CacheStats,
    context: &str,
) {
    let l = [("cache", "result")];
    assert_eq!(
        delta(before, after, "amber_cache_hits_total", &l),
        legacy.hits,
        "{context}: hits"
    );
    assert_eq!(
        delta(before, after, "amber_cache_misses_total", &l),
        legacy.misses,
        "{context}: misses"
    );
    assert_eq!(
        delta(before, after, "amber_cache_bypasses_total", &l),
        legacy.bypasses,
        "{context}: bypasses"
    );
    assert_eq!(
        delta(before, after, "amber_cache_evictions_total", &l),
        legacy.evictions,
        "{context}: evictions"
    );
}

#[test]
fn batch_stats_agree_exactly_with_the_registry() {
    let _serial = serial();
    let config = SkewedConfig {
        children: 24,
        grandchildren: 12,
        trivial_seeds: 200,
        ..SkewedConfig::skewed()
    };
    let engine = AmberEngine::from_graph(amber_multigraph::RdfGraph::from_triples(
        &skewed::generate(&config),
    ));
    let query = amber_sparql::parse_select(&skewed::chain_query(&config)).unwrap();
    // A plan prepared on another engine: stale here.
    let foreign = AmberEngine::from_graph(amber_multigraph::paper::paper_graph())
        .prepare_sparql(&amber_multigraph::paper::paper_query_text())
        .unwrap();
    let options = ExecOptions::batch();
    // Repeats through a warm session: result hits, and (first run) a
    // search. A text that
    // does not parse and a stale plan fail inside the same query envelope,
    // so they are counted like every other request.
    let requests = [
        QueryRequest::parsed(&query).with_options(options.clone()),
        QueryRequest::parsed(&query).with_options(options.clone()),
        QueryRequest::parsed(&query).with_options(options.clone()),
        QueryRequest::sparql("not sparql").with_options(options.clone()),
        QueryRequest::prepared(&foreign).with_options(options.clone()),
    ];
    // A fresh session: its counters after the batch are the batch's.
    let mut session = engine.create_session(&options);

    let before = amber_obs::snapshot();
    let outcomes: Vec<_> = requests
        .iter()
        .map(|request| engine.run_in(request, &mut session))
        .collect();
    let after = amber_obs::snapshot();
    let count = |status: Option<QueryStatus>| {
        outcomes
            .iter()
            .filter(|o| o.as_ref().ok().map(|o| o.status) == status)
            .count() as u64
    };

    assert_eq!(count(Some(QueryStatus::Completed)), 3, "workload sanity");
    assert_eq!(count(None), 2, "workload sanity");
    for (status, legacy) in [
        ("completed", count(Some(QueryStatus::Completed))),
        ("timed_out", count(Some(QueryStatus::TimedOut))),
        ("error", count(None)),
    ] {
        assert_eq!(
            delta(
                &before,
                &after,
                "amber_queries_total",
                &[("status", status)]
            ),
            legacy,
            "status {status}"
        );
    }
    let latency_before = before
        .histogram_value("amber_query_latency_us", &[])
        .map_or(0, |h| h.count);
    let latency_after = after
        .histogram_value("amber_query_latency_us", &[])
        .map_or(0, |h| h.count);
    assert_eq!(
        latency_after - latency_before,
        requests.len() as u64,
        "one observation per request"
    );
    assert_eq!(
        session.queries_executed(),
        requests.len() as u64,
        "one count per request"
    );

    let results = session.result_stats();
    assert_cache_family(&before, &after, &results, "batch");
    assert!(
        results.hits >= 1,
        "verbatim repeats must exercise the result-cache hit: {results:?}"
    );

    // Search work lives in the registry only: it equals the per-request
    // facts (no panic was quarantined).
    let internal = outcomes
        .iter()
        .filter(|o| matches!(o, Err(Error::Engine(EngineError::Internal { .. }))))
        .count() as u64;
    assert_eq!(
        delta(&before, &after, "amber_query_trapped_panics_total", &[]),
        internal
    );
    assert!(
        delta(&before, &after, "amber_search_nodes_total", &[]) >= 1,
        "the executed search counts its nodes"
    );
}

#[test]
fn serve_report_agrees_exactly_with_the_registry() {
    let _serial = serial();
    let before = amber_obs::snapshot();
    let engine = demo_engine();
    let server = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServeConfig::default()
        },
    );
    // Deterministic backlog: nothing runs until a ticket is redeemed, so
    // the queue fills; then reject, then redeem.
    // One request that serves, one whose budget expires queued (shed).
    let healthy = server.submit_sparql("a", CHAIN).unwrap();
    let doomed = server
        .submit_sparql_with("b", CHAIN, Some(Duration::ZERO))
        .unwrap();
    // Queue full: the third submission is rejected.
    assert!(matches!(
        server.submit_sparql("c", CHAIN),
        Err(Error::Overloaded { .. })
    ));
    // Redeeming the later ticket first runs the earlier one for nobody:
    // one dispatch on each path.
    assert!(matches!(doomed.wait(), Err(Error::DeadlineExpired { .. })));
    assert_eq!(healthy.wait().unwrap().status, QueryStatus::Completed);
    // A zero-timeout execution, on a second server whose every request
    // times out. This one goes through `execute`, so it runs on this
    // thread: an inline dispatch.
    let strict = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 1,
            options: ExecOptions::batch().with_timeout(Duration::ZERO),
            ..ServeConfig::default()
        },
    );
    let slow = strict.execute("d", CHAIN, None);
    assert_eq!(slow.unwrap().status, QueryStatus::TimedOut);

    // Acceptance: a MID-RUN snapshot (server still up) already carries
    // consistent non-zero counters for every layer.
    let mid = amber_obs::snapshot();
    assert!(
        mid.counter_value("amber_queries_total", &[("status", "completed")]) > 0,
        "engine layer live"
    );
    assert!(
        mid.counter_total("amber_cache_misses_total")
            + mid.counter_total("amber_cache_bypasses_total")
            > 0,
        "cache layer live"
    );
    assert!(
        mid.counter_value("amber_search_nodes_total", &[]) > 0,
        "search layer live"
    );
    assert!(
        mid.counter_value("amber_serve_requests_total", &[("outcome", "served")]) > 0,
        "admission layer live"
    );
    assert!(
        mid.histogram_value("amber_serve_queue_wait_us", &[])
            .map_or(0, |h| h.count)
            > 0,
        "queue-wait histogram live"
    );

    // The registry counts both servers; their reports are summed.
    let reports = [server.shutdown(), strict.shutdown()];
    let after = amber_obs::snapshot();
    let sum = |field: fn(&ServeReport) -> u64| reports.iter().map(field).sum::<u64>();
    let outcome = |o: &str| {
        delta(
            &before,
            &after,
            "amber_serve_requests_total",
            &[("outcome", o)],
        )
    };
    let served = sum(ServeReport::served);
    let shed = sum(|r| r.deadline_shed);
    let rejected = sum(|r| r.rejected);
    let inline = sum(|r| r.inline_dispatches);
    let queued = sum(|r| r.queued_dispatches);
    assert_eq!(outcome("served"), served, "served");
    assert_eq!(outcome("shed"), shed, "shed");
    assert_eq!(outcome("rejected"), rejected, "rejected");
    assert_eq!(
        after.gauge_value("amber_serve_queue_depth", &[]),
        0,
        "the drained queue gauge returns to zero"
    );
    let path = |p: &str| {
        delta(
            &before,
            &after,
            "amber_serve_dispatches_total",
            &[("path", p)],
        )
    };
    assert_eq!(path("inline"), inline, "inline");
    assert_eq!(path("queued"), queued, "queued");
    let waits = |s: &MetricsSnapshot| {
        s.histogram_value("amber_serve_queue_wait_us", &[])
            .map_or(0, |h| h.count)
    };
    assert_eq!(
        waits(&after) - waits(&before),
        inline + queued,
        "one queue-wait observation per dispatch, inline ones included"
    );
    // Workload sanity: every compared field was actually exercised.
    assert_eq!(inline, 2);
    assert_eq!(queued, 1);
    assert_eq!(served, 2);
    assert_eq!(shed, 1);
    assert_eq!(rejected, 1);
}

#[test]
fn http_body_sources_and_the_memo_gauge_agree_with_the_wire() {
    let _serial = serial();
    let before = amber_obs::snapshot();
    let engine = demo_engine();
    let body = amber_http::sparql_json(&engine.run(&QueryRequest::sparql(CHAIN)).unwrap());
    let http = HttpServer::start(
        Server::start(Arc::clone(&engine), ServeConfig::default()),
        HttpConfig::default(),
    )
    .unwrap();
    // Three pipelined requests on one connection, the last one closing
    // it: everything the server sends is what the client reads to EOF.
    let request = |connection: &str| {
        format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\nConnection: {connection}\r\n\
             Content-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{CHAIN}",
            CHAIN.len()
        )
    };
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let requests = [
        request("keep-alive"),
        request("keep-alive"),
        request("close"),
    ];
    stream.write_all(requests.concat().as_bytes()).unwrap();
    let mut wire = String::new();
    stream.read_to_string(&mut wire).unwrap();
    assert_eq!(wire.matches(body.as_str()).count(), 3, "{wire}");

    let mid = amber_obs::snapshot();
    let source = |s: &str| {
        delta(
            &before,
            &mid,
            "amber_http_result_bodies_total",
            &[("source", s)],
        )
    };
    let (serialized, memoized) = (source("serialized"), source("memoized"));
    assert_eq!(
        serialized + memoized,
        delta(
            &before,
            &mid,
            "amber_http_responses_total",
            &[("class", "2xx")]
        ),
        "one source per 200"
    );
    let serializations = |s: &MetricsSnapshot| {
        s.histogram_value("amber_http_serialize_us", &[])
            .map_or(0, |h| h.count)
    };
    assert_eq!(
        serializations(&mid) - serializations(&before),
        serialized,
        "a memoized body is not a serialization"
    );
    assert_eq!(
        delta(&before, &mid, "amber_http_response_bytes_total", &[]),
        wire.len() as u64,
        "memoized bodies count their own length"
    );
    // The second serialization memoized the body on the result-cache
    // entry, which is still alive.
    assert_eq!((serialized, memoized), (2, 1));
    let gauge = |s: &MetricsSnapshot| s.gauge_value("amber_result_body_bytes", &[]);
    assert_eq!(gauge(&mid) - gauge(&before), body.len() as i64);
    http.shutdown();
    assert_eq!(
        gauge(&amber_obs::snapshot()),
        0,
        "the memo is freed with the server's result caches"
    );
}

#[test]
fn slow_query_log_captures_an_injected_delay_query() {
    let _serial = serial();
    // Arm a delay on every candidate probe; the chaos firings counter
    // proves the delays actually fired during the traced query.
    let _chaos =
        amber_util::fault::override_spec("7:matcher-candidate=delay@1").expect("spec parses");
    let before = amber_obs::snapshot();
    let engine = demo_engine();
    let options = ExecOptions::batch();
    let mut session = engine.create_session(&options);
    session.configure_tracing(true, Some(Duration::ZERO));
    let query = amber_sparql::parse_select(CHAIN).unwrap();
    let outcome = engine
        .run_in(
            &QueryRequest::parsed(&query).with_options(options),
            &mut session,
        )
        .unwrap();
    assert_eq!(outcome.status, QueryStatus::Completed);
    let after = amber_obs::snapshot();
    assert!(
        delta(
            &before,
            &after,
            "amber_chaos_firings_total",
            &[("point", "matcher-candidate")]
        ) > 0,
        "the armed delay must have fired"
    );
    let log: Vec<&str> = session.flight_recorder().slow_log().collect();
    assert_eq!(log.len(), 1, "threshold ZERO logs the delayed query");
    let entry = log[0];
    assert!(entry.contains("completed in"), "{entry}");
    assert!(entry.contains("execute"), "{entry}");
    assert!(entry.contains("component[0]"), "{entry}");
    assert!(entry.contains("caches:"), "{entry}");
}

/// `amber_cache_entries` / `amber_cache_bytes` sum over live sessions:
/// two tenants with different numbers of distinct queries move the gauges
/// by the sum of their caches, and dropping the sessions (at shutdown)
/// takes their shares back out. An out-of-query `clear_cache` shows at
/// once.
#[test]
fn cache_gauges_sum_over_live_sessions() {
    let _serial = serial();
    let gauges = |s: &MetricsSnapshot| {
        let l = [("cache", "result")];
        (
            s.gauge_value("amber_cache_entries", &l),
            s.gauge_value("amber_cache_bytes", &l),
        )
    };
    let moved = |before: &MetricsSnapshot, after: &MetricsSnapshot| {
        let ((e0, b0), (e1, b1)) = (gauges(before), gauges(after));
        (e1 - e0, b1 - b0)
    };
    let engine = demo_engine();
    let before = amber_obs::snapshot();
    let server = Server::start(Arc::clone(&engine), ServeConfig::default());
    for (tenant, query) in [("a", CHAIN), ("b", CHAIN), ("b", BACK_EDGE)] {
        server.execute(tenant, query, None).unwrap();
    }
    let mid = amber_obs::snapshot();
    let report = server.shutdown();
    let results: Vec<usize> = report
        .tenants
        .iter()
        .map(|t| t.result_stats.entries)
        .collect();
    assert_eq!(
        results,
        [1, 2],
        "workload sanity: one and two distinct queries"
    );
    let legacy = &report.result_stats;
    assert_eq!(
        moved(&before, &mid),
        (legacy.entries as i64, legacy.result_bytes as i64),
        "the gauges are the sum over both tenants"
    );
    assert_eq!(
        gauges(&amber_obs::snapshot()),
        gauges(&before),
        "dropped sessions leave the gauges"
    );

    let options = ExecOptions::batch();
    let mut session = engine.create_session(&options);
    let run = |session: &mut QuerySession, query| {
        let request = QueryRequest::sparql(query).with_options(options.clone());
        engine.run_in(&request, session).unwrap();
    };
    run(&mut session, CHAIN);
    run(&mut session, BACK_EDGE);
    assert_eq!(session.result_stats().entries, 2, "workload sanity");
    session.clear_cache();
    assert_eq!(
        gauges(&amber_obs::snapshot()),
        gauges(&before),
        "the clear shows before the session's next query"
    );
    run(&mut session, CHAIN);
    let stats = session.result_stats();
    assert_eq!(stats.entries, 1, "workload sanity");
    assert_eq!(
        moved(&before, &amber_obs::snapshot()),
        (1, stats.result_bytes as i64),
        "the store shows at once"
    );
    drop(session);
    assert_eq!(gauges(&amber_obs::snapshot()), gauges(&before));
}

/// Metric families the canned workload below is guaranteed to register —
/// one per instrumented layer (see docs/observability.md for the catalog).
const EXPECTED_FAMILIES: &[&str] = &[
    "amber_queries_total",
    "amber_query_latency_us",
    "amber_cache_hits_total",
    "amber_cache_entries",
    "amber_search_nodes_total",
    "amber_serve_requests_total",
    "amber_serve_queue_depth",
    "amber_serve_queue_wait_us",
];

/// The export-format golden test: drive every instrumented layer once (a
/// warm batch for the cache and search counters, one served request for
/// admission and queue wait), then check the Prometheus render of the
/// snapshot: it must carry every expected family (presence, not values:
/// registration is the contract, and values vary with the CI lanes).
#[test]
fn canned_snapshot_renders_verify() {
    let _serial = serial();
    let engine = demo_engine();
    let query = amber_sparql::parse_select(CHAIN).unwrap();
    let options = ExecOptions::batch();
    let request = QueryRequest::parsed(&query).with_options(options.clone());
    let mut session = engine.create_session(&options);
    for _ in 0..2 {
        let outcome = engine.run_in(&request, &mut session).unwrap();
        assert_eq!(
            outcome.status,
            QueryStatus::Completed,
            "canned batch completes"
        );
    }
    let server = Server::start(Arc::clone(&engine), ServeConfig::default());
    server
        .submit_sparql("tenant-a", CHAIN)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        server.shutdown().served(),
        1,
        "canned serve round completes"
    );

    let snapshot = amber_obs::snapshot();
    let prometheus = snapshot.render_prometheus();
    for name in EXPECTED_FAMILIES {
        assert!(
            prometheus.contains(&format!("# TYPE {name}")),
            "Prometheus render missing family {name}"
        );
    }
    // Histogram shape: cumulative buckets with a +Inf terminator and
    // _sum/_count series.
    assert!(prometheus.contains("amber_query_latency_us_bucket"));
    assert!(prometheus.contains("le=\"+Inf\""));
    assert!(prometheus.contains("amber_query_latency_us_sum"));
    assert!(prometheus.contains("amber_query_latency_us_count"));
    let latency = snapshot
        .histogram_value("amber_query_latency_us", &[])
        .expect("latency histogram registered");
    assert!(latency.count >= 2, "the canned batch observed its queries");
    // Plans are derived per query: there is no plan cache to report.
    assert!(!prometheus.contains("cache=\"plan\""), "{prometheus}");
}

/// The metric catalog of `docs/observability.md`: the backticked names in
/// the first column of each table row.
fn catalog_families() -> std::collections::BTreeSet<String> {
    const DOC: &str = include_str!("../docs/observability.md");
    DOC.lines()
        .filter(|line| line.starts_with("| `amber_"))
        .flat_map(|line| {
            let first_column = line.split('|').nth(1).unwrap_or_default();
            first_column
                .split('`')
                .skip(1)
                .step_by(2)
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The doc-drift check: drive the engine, a `Server` and one `HttpServer`
/// request pair (the repeat is sent from the body memo, so the memo
/// series register too), then hold the Prometheus render against the
/// catalog both ways — every rendered family has a row, and every row's
/// family is rendered.
#[test]
fn catalog_lists_exactly_the_registered_families() {
    let _serial = serial();
    let engine = demo_engine();
    let mut session = engine.create_session(&ExecOptions::batch());
    engine
        .run_in(&QueryRequest::sparql(CHAIN), &mut session)
        .unwrap();
    let server = Server::start(Arc::clone(&engine), ServeConfig::default());
    server.execute("a", CHAIN, None).unwrap();
    server.shutdown();
    let http = HttpServer::start(
        Server::start(Arc::clone(&engine), ServeConfig::default()),
        HttpConfig::default(),
    )
    .unwrap();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(http.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        write!(
            stream,
            "POST /sparql HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{CHAIN}",
            CHAIN.len()
        )
        .unwrap();
        let mut wire = String::new();
        stream.read_to_string(&mut wire).unwrap();
        assert!(wire.starts_with("HTTP/1.1 200"), "{wire}");
    }
    http.shutdown();

    let rendered: std::collections::BTreeSet<String> = amber_obs::snapshot()
        .render_prometheus()
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split(' ').next())
        .filter(|name| name.starts_with("amber_"))
        .map(str::to_string)
        .collect();
    let catalog = catalog_families();
    let undocumented: Vec<_> = rendered.difference(&catalog).collect();
    assert!(
        undocumented.is_empty(),
        "registered but missing from docs/observability.md: {undocumented:?}"
    );
    // `amber_chaos_firings_total` registers a series on its point's first
    // firing, which this workload (and an unarmed run) never causes.
    let unregistered: Vec<_> = catalog
        .difference(&rendered)
        .filter(|name| *name != "amber_chaos_firings_total")
        .collect();
    assert!(
        unregistered.is_empty(),
        "in docs/observability.md but never registered: {unregistered:?}"
    );
}

/// A verbatim repeat on a warm session is answered from the result cache
/// before any planning: its trace notes only the hit and has no `plan`
/// span, and the search does not move.
#[test]
fn verbatim_repeat_is_answered_before_planning() {
    let _serial = serial();
    let engine = demo_engine();
    let options = ExecOptions::batch();
    let mut session = engine.create_session(&options);
    session.configure_tracing(true, None);
    let request = QueryRequest::sparql(CHAIN).with_options(options.clone());
    engine.run_in(&request, &mut session).unwrap();
    let first = session.flight_recorder().last().unwrap();
    assert_eq!(first.cache_trail, ["result:miss", "result:store"]);
    assert!(first.spans.iter().any(|s| s.stage == "plan"), "{first:?}");

    let executed = session.queries_executed();
    let before = amber_obs::snapshot();
    let repeat = engine.run_in(&request, &mut session).unwrap();
    let after = amber_obs::snapshot();
    assert_eq!(repeat.status, QueryStatus::Completed);
    let trace = session.flight_recorder().last().unwrap();
    assert_eq!(trace.cache_trail, ["result:hit"]);
    assert!(trace.spans.iter().all(|s| s.stage != "plan"), "{trace:?}");
    assert_eq!(session.queries_executed(), executed + 1, "one query");
    assert_eq!(
        delta(&before, &after, "amber_search_nodes_total", &[]),
        0,
        "no search"
    );
}
