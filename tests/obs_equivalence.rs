//! Differential tests pinning the `amber_obs` metrics registry to the
//! legacy in-struct accounting (a session's `CacheStats`, `PlanCacheStats`
//! and `SearchStats`, and the `ServeReport`).
//!
//! The registry is *populated from* the legacy structs by a per-query
//! delta flush (see `crates/core/src/telemetry.rs`), so the two views are
//! derived from the same counters — these tests pin that the derivation
//! is *exact*: over batch and concurrent serving workloads, every
//! registry delta equals the corresponding legacy counter, and the cache
//! gauges equal the sum over live sessions.
//!
//! The registry is process-global, so every test takes [`serial`], which
//! serializes the tests in this binary against each other.

mod minijson;

use amber::{AmberEngine, Error, ExecOptions, QueryRequest, QuerySession, QueryStatus};
use amber_datagen::skewed::{self, SkewedConfig};
use amber_http::{HttpConfig, HttpServer};
use amber_obs::MetricsSnapshot;
use amber_serve::{BreakerConfig, ServeConfig, Server, SubmitOptions};
use minijson::Json;
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

/// Assert one cache layer's registry deltas equal a legacy
/// [`amber::CacheStats`] delta (counters only; the entries/bytes gauges
/// carry current state, not deltas).
fn assert_cache_family(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    layer: &str,
    legacy: &amber::CacheStats,
    context: &str,
) {
    let l = [("cache", layer)];
    assert_eq!(
        delta(before, after, "amber_cache_hits_total", &l),
        legacy.hits,
        "{context}: {layer} hits"
    );
    assert_eq!(
        delta(before, after, "amber_cache_misses_total", &l),
        legacy.misses,
        "{context}: {layer} misses"
    );
    assert_eq!(
        delta(before, after, "amber_cache_bypasses_total", &l),
        legacy.bypasses,
        "{context}: {layer} bypasses"
    );
    assert_eq!(
        delta(before, after, "amber_cache_evictions_total", &l),
        legacy.evictions,
        "{context}: {layer} evictions"
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
    // Repeats through a warm session: plan hits, result hits, and (first
    // run) the search counters all flow through the flush. A text that
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
        ("cancelled", count(Some(QueryStatus::Cancelled))),
        ("budget_exceeded", count(Some(QueryStatus::BudgetExceeded))),
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

    let plans = session.plan_stats();
    assert_cache_family(&before, &after, "seed", &session.seed_stats(), "batch");
    assert_cache_family(&before, &after, "plan", &plans.plans, "batch");
    assert_cache_family(&before, &after, "result", &plans.results, "batch");
    assert_eq!(
        delta(&before, &after, "amber_result_hit_copied_bytes_total", &[]),
        plans.result_hit_copied_bytes
    );

    let search = session.search_stats();
    for (name, legacy) in [
        ("amber_search_nodes_total", search.nodes),
        ("amber_query_trapped_panics_total", search.trapped_panics),
        ("amber_query_cancellations_total", search.cancellations),
        (
            "amber_query_degradation_steps_total",
            search.degradation_steps,
        ),
    ] {
        assert_eq!(delta(&before, &after, name, &[]), legacy, "{name}");
    }
    assert!(
        plans.results.hits >= 1,
        "verbatim repeats must exercise the result-cache flush: {plans:?}"
    );
    assert!(
        search.nodes >= 1,
        "the executed search must exercise the node-count flush"
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
            breaker: Some(BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(3600),
            }),
            ..ServeConfig::default()
        },
    );
    // Deterministic backlog: fill, reject, then drain.
    server.pause();
    // One request that serves, one whose budget expires queued (shed).
    let healthy = server.submit_sparql("a", CHAIN).unwrap();
    let doomed = server
        .submit_sparql_with("b", CHAIN, SubmitOptions::new().with_budget(Duration::ZERO))
        .unwrap();
    // Queue full: the third submission is rejected.
    assert!(matches!(
        server.submit_sparql("c", CHAIN),
        Err(Error::Overloaded { .. })
    ));
    server.resume();
    assert_eq!(healthy.wait().unwrap().status, QueryStatus::Completed);
    assert!(matches!(doomed.wait(), Err(Error::DeadlineExpired { .. })));
    // Trip a fresh tenant's breaker (threshold 1; a fresh tenant so no
    // warm result cache short-circuits the zero-timeout execution) and
    // observe one fast-fail.
    // This one goes through `execute`: the server is idle by now, so it
    // is the run's one inline dispatch.
    let slow = server.execute(
        "d",
        CHAIN,
        SubmitOptions::new().with_timeout(Duration::ZERO),
    );
    assert_eq!(slow.unwrap().status, QueryStatus::TimedOut);
    assert!(matches!(
        server.submit_sparql("d", CHAIN),
        Err(Error::CircuitOpen { .. })
    ));

    // Acceptance: a MID-RUN snapshot (server still up) already carries
    // consistent non-zero counters for every layer.
    let mid = server.metrics_snapshot();
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

    let report = server.shutdown();
    let after = amber_obs::snapshot();
    let outcome = |o: &str| {
        delta(
            &before,
            &after,
            "amber_serve_requests_total",
            &[("outcome", o)],
        )
    };
    assert_eq!(outcome("served"), report.served(), "served");
    assert_eq!(outcome("shed"), report.deadline_shed, "shed");
    assert_eq!(outcome("rejected"), report.rejected, "rejected");
    assert_eq!(
        outcome("fast_fail"),
        report.breaker_fast_fails,
        "fast fails"
    );
    assert_eq!(outcome("revoked"), 0, "drain revokes nothing");
    assert_eq!(
        delta(&before, &after, "amber_serve_breaker_trips_total", &[]),
        report.breaker_trips,
        "trips"
    );
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
    assert_eq!(path("inline"), report.inline_dispatches, "inline");
    assert_eq!(path("queued"), report.queued_dispatches, "queued");
    let waits = |s: &MetricsSnapshot| {
        s.histogram_value("amber_serve_queue_wait_us", &[])
            .map_or(0, |h| h.count)
    };
    assert_eq!(
        waits(&after) - waits(&before),
        report.inline_dispatches + report.queued_dispatches,
        "one queue-wait observation per dispatch, inline ones included"
    );
    // Workload sanity: every compared field was actually exercised.
    assert_eq!(report.inline_dispatches, 1);
    assert_eq!(report.queued_dispatches, 2);
    assert_eq!(report.served(), 2);
    assert_eq!(report.deadline_shed, 1);
    assert_eq!(report.rejected, 1);
    assert_eq!(report.breaker_trips, 1);
    assert_eq!(report.breaker_fast_fails, 1);
}

#[test]
fn shutdown_now_revocations_reach_the_registry() {
    let _serial = serial();
    let before = amber_obs::snapshot();
    let engine = demo_engine();
    let server = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    server.pause();
    let tickets: Vec<_> = (0..3)
        .map(|_| server.submit_sparql("a", CHAIN).unwrap())
        .collect();
    let report = server.shutdown_now();
    for ticket in tickets {
        assert!(matches!(ticket.wait(), Err(Error::ShuttingDown)));
    }
    assert_eq!(report.served(), 0);
    let after = amber_obs::snapshot();
    assert_eq!(
        delta(
            &before,
            &after,
            "amber_serve_requests_total",
            &[("outcome", "revoked")]
        ),
        3
    );
    assert_eq!(after.gauge_value("amber_serve_queue_depth", &[]), 0);
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
/// the session's next flush.
#[test]
fn cache_gauges_sum_over_live_sessions() {
    let _serial = serial();
    let gauges = |s: &MetricsSnapshot, layer: &str| {
        let l = [("cache", layer)];
        (
            s.gauge_value("amber_cache_entries", &l),
            s.gauge_value("amber_cache_bytes", &l),
        )
    };
    let moved = |before: &MetricsSnapshot, after: &MetricsSnapshot, layer: &str| {
        let ((e0, b0), (e1, b1)) = (gauges(before, layer), gauges(after, layer));
        (e1 - e0, b1 - b0)
    };
    let engine = demo_engine();
    let before = amber_obs::snapshot();
    let server = Server::start(Arc::clone(&engine), ServeConfig::default());
    for (tenant, query) in [("a", CHAIN), ("b", CHAIN), ("b", BACK_EDGE)] {
        server.execute(tenant, query, SubmitOptions::new()).unwrap();
    }
    let mid = amber_obs::snapshot();
    let report = server.shutdown();
    let results: Vec<usize> = report
        .tenants
        .iter()
        .map(|t| t.plan_stats.results.entries)
        .collect();
    assert_eq!(
        results,
        [1, 2],
        "workload sanity: one and two distinct queries"
    );
    for (layer, legacy) in [
        ("plan", &report.plan_stats.plans),
        ("result", &report.plan_stats.results),
    ] {
        assert_eq!(
            moved(&before, &mid, layer),
            (legacy.entries as i64, legacy.result_bytes as i64),
            "{layer}: the gauges are the sum over both tenants"
        );
        assert_eq!(
            gauges(&amber_obs::snapshot(), layer),
            gauges(&before, layer),
            "{layer}: dropped sessions leave the gauges"
        );
    }

    let options = ExecOptions::batch();
    let mut session = engine.create_session(&options);
    let run = |session: &mut QuerySession, query| {
        let request = QueryRequest::sparql(query).with_options(options.clone());
        engine.run_in(&request, session).unwrap();
    };
    run(&mut session, CHAIN);
    run(&mut session, BACK_EDGE);
    session.clear_cache();
    run(&mut session, CHAIN);
    let stats = session.plan_stats().results;
    assert_eq!(stats.entries, 1, "workload sanity");
    assert_eq!(
        moved(&before, &amber_obs::snapshot(), "result"),
        (1, stats.result_bytes as i64),
        "the clear showed at the next flush"
    );
    drop(session);
    assert_eq!(
        gauges(&amber_obs::snapshot(), "result"),
        gauges(&before, "result")
    );
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
/// admission and queue wait), then check both renders of the snapshot.
/// The JSON must parse, and both formats must carry every expected family
/// (presence, not values: registration is the contract, and values vary
/// with the CI lanes).
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
    let (prometheus, json) = (snapshot.render_prometheus(), snapshot.render_json());
    let parsed = Json::parse(&json).expect("the JSON render must parse");
    let metrics = parsed
        .get("metrics")
        .and_then(Json::as_array)
        .expect("top-level `metrics` array");
    assert!(!metrics.is_empty(), "snapshot must not be empty");
    for name in EXPECTED_FAMILIES {
        assert!(
            prometheus.contains(&format!("# TYPE {name}")),
            "Prometheus render missing family {name}"
        );
        assert!(
            metrics
                .iter()
                .any(|m| m.get("name").and_then(Json::as_str) == Some(name)),
            "JSON render missing family {name}"
        );
    }
    // Histogram shape: cumulative buckets with a +Inf terminator and
    // _sum/_count series in Prometheus; count/sum/buckets in JSON.
    assert!(prometheus.contains("amber_query_latency_us_bucket"));
    assert!(prometheus.contains("le=\"+Inf\""));
    assert!(prometheus.contains("amber_query_latency_us_sum"));
    assert!(prometheus.contains("amber_query_latency_us_count"));
    let latency = metrics
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("amber_query_latency_us"))
        .expect("latency histogram in JSON");
    assert!(latency.get("count").and_then(Json::as_f64).unwrap_or(0.0) >= 2.0);
    assert!(latency.get("buckets").and_then(Json::as_array).is_some());
}
