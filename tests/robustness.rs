//! Failure injection and adversarial inputs: malformed documents, hostile
//! query shapes, zero budgets, empty graphs, unicode — the "production
//! quality" envelope around the paper's algorithm.

use amber::{AmberEngine, CancelToken, EngineError, Error, ExecOptions, QueryRequest, QueryStatus};
use amber_baselines::all_engines;
use amber_multigraph::paper::{paper_graph, paper_query_text, PAPER_QUERY_EMBEDDINGS};
use amber_multigraph::RdfGraph;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn malformed_ntriples_is_rejected_with_position() {
    for (doc, line) in [
        ("<http://a> <http://b> .", 1usize),
        ("<http://a> <http://b> <http://c> .\nbroken", 2),
        ("<http://a> <http://b> \"unterminated .", 1),
    ] {
        match AmberEngine::load_ntriples(doc) {
            Err(EngineError::NtParse(e)) => assert_eq!(e.line, line, "doc: {doc:?}"),
            Err(other) => panic!("expected parse error for {doc:?}, got {other}"),
            Ok(_) => panic!("malformed document loaded: {doc:?}"),
        }
    }
}

#[test]
fn sparql_error_paths() {
    let engine = AmberEngine::from_graph(paper_graph());
    // Syntax and unsupported-feature errors both surface as EngineError.
    assert!(matches!(
        engine.run(&QueryRequest::sparql("SELECT WHERE")),
        Err(Error::Engine(EngineError::Sparql(_)))
    ));
    assert!(matches!(
        engine.run(&QueryRequest::sparql("SELECT * WHERE { ?s ?p ?o }")),
        Err(Error::Engine(
            EngineError::Sparql(_) | EngineError::QueryGraph(_)
        ))
    ));
}

#[test]
fn numeric_literals_are_typed_by_the_sparql_grammar() {
    // Each literal is stored under the datatype the grammar gives its bare
    // spelling, so each query has exactly one answer — on every engine.
    let xsd = "http://www.w3.org/2001/XMLSchema#";
    let data = format!(
        "<http://n/a> <http://n/p> \"1e5\"^^<{xsd}double> .\n\
         <http://n/b> <http://n/p> \"123456789012345678901\"^^<{xsd}integer> .\n\
         <http://n/c> <http://n/p> \".5\"^^<{xsd}decimal> .\n"
    );
    let rdf = Arc::new(RdfGraph::parse_ntriples(&data).unwrap());
    for (literal, subject) in [
        ("1e5", "http://n/a"),
        ("123456789012345678901", "http://n/b"),
        (".5", "http://n/c"),
    ] {
        let query = format!("SELECT ?s WHERE {{ ?s <http://n/p> {literal} }}");
        for engine in all_engines(Arc::clone(&rdf)) {
            let outcome = engine
                .execute_sparql(&query, &ExecOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
            assert_eq!(outcome.embedding_count, 1, "{} on {query}", engine.name());
            assert_eq!(outcome.bindings.to_vec(), vec![vec![subject.into()]]);
        }
    }
}

#[test]
fn empty_graph_answers_everything_with_zero() {
    let rdf = Arc::new(RdfGraph::from_triples([]));
    for engine in all_engines(rdf) {
        let outcome = engine
            .execute_sparql(
                "SELECT * WHERE { ?s <http://p> ?o . }",
                &ExecOptions::default(),
            )
            .expect("executes");
        assert_eq!(outcome.embedding_count, 0, "{}", engine.name());
        assert_eq!(outcome.status, QueryStatus::Completed);
    }
}

#[test]
fn zero_budget_times_out_on_every_engine() {
    let rdf = Arc::new(paper_graph());
    let query = amber_multigraph::paper::paper_query_text();
    for engine in all_engines(rdf) {
        let outcome = engine
            .execute_sparql(&query, &ExecOptions::default().with_timeout(Duration::ZERO))
            .expect("executes");
        assert!(outcome.timed_out(), "{} must time out", engine.name());
    }
}

#[test]
fn midflight_deadline_is_reported_or_the_count_is_exact() {
    // The skewed generator has closed-form counts. Unbounded, the engine
    // must reproduce them; with a budget around the query's own runtime,
    // whichever way the race goes the outcome either carries the timeout
    // flag or is the exact complete answer — never a silently-partial
    // "completed" count.
    use amber_datagen::skewed::{self, SkewedConfig};
    for (config, budgets_us) in [
        (
            SkewedConfig {
                children: 96,
                grandchildren: 96,
                trivial_seeds: 2_000,
                ..SkewedConfig::skewed()
            },
            &[50u64, 200, 1_000, 5_000][..],
        ),
        (
            SkewedConfig {
                hubs: 40,
                children: 3,
                grandchildren: 4,
                ..SkewedConfig::uniform()
            },
            &[][..],
        ),
        (
            SkewedConfig {
                children: 16,
                grandchildren: 16,
                ..SkewedConfig::single_seed()
            },
            &[][..],
        ),
    ] {
        let engine = AmberEngine::from_graph(RdfGraph::from_triples(&skewed::generate(&config)));
        let query = skewed::chain_query(&config);
        let counting = QueryRequest::sparql(&query).counting();
        let unbounded = engine.run(&counting).unwrap();
        assert_eq!(unbounded.status, QueryStatus::Completed);
        assert_eq!(unbounded.embedding_count, config.expected_embeddings());
        for &budget_us in budgets_us {
            let outcome = engine
                .run(
                    &counting
                        .clone()
                        .with_timeout(Duration::from_micros(budget_us)),
                )
                .unwrap();
            if !outcome.timed_out() {
                assert_eq!(
                    outcome.embedding_count,
                    config.expected_embeddings(),
                    "budget {budget_us}µs: completed runs must be exact"
                );
            }
        }
    }
}

#[test]
fn cartesian_blowup_is_capped_by_max_results() {
    // A 4-component disconnected query: the full product has 13^4 ≈ 28k
    // embeddings on the paper graph if each pattern matched every edge —
    // materialization must stop at the cap while the count stays exact.
    let doc: String = (0..30)
        .map(|i| format!("<http://x/s{i}> <http://p/e> <http://x/o{}> .\n", i % 7))
        .collect();
    let engine = AmberEngine::load_ntriples(&doc).unwrap();
    let query = "SELECT * WHERE { ?a <http://p/e> ?b . ?c <http://p/e> ?d . \
                 ?e <http://p/e> ?f . ?g <http://p/e> ?h . }";
    let outcome = engine
        .run(&QueryRequest::sparql(query).with_max_results(50))
        .unwrap();
    assert_eq!(outcome.embedding_count, 30u128.pow(4));
    assert_eq!(outcome.bindings.len(), 50);
}

#[test]
fn clique_query_terminates() {
    // Dense 5-clique pattern over a small dense graph: worst-case join
    // structure, must complete (or time out cleanly) on all engines.
    let mut doc = String::new();
    for i in 0..12 {
        for j in 0..12 {
            if i != j {
                doc.push_str(&format!("<http://x/n{i}> <http://p/e> <http://x/n{j}> .\n"));
            }
        }
    }
    let rdf = Arc::new(RdfGraph::parse_ntriples(&doc).unwrap());
    let vars = ["a", "b", "c", "d", "e"];
    let mut patterns = String::new();
    for i in 0..vars.len() {
        for j in 0..vars.len() {
            if i < j {
                patterns.push_str(&format!("?{} <http://p/e> ?{} . ", vars[i], vars[j]));
            }
        }
    }
    let query = format!("SELECT * WHERE {{ {patterns} }}");
    let options = ExecOptions::benchmark(Duration::from_secs(20));
    let expected = 12u128 * 11 * 10 * 9 * 8; // ordered 5-tuples of distinct vertices
    for engine in all_engines(rdf) {
        let outcome = engine.execute_sparql(&query, &options).expect("executes");
        if !outcome.timed_out() {
            assert_eq!(outcome.embedding_count, expected, "{}", engine.name());
        }
    }
}

#[test]
fn long_chain_query() {
    // A 40-deep path query over a cycle graph: recursion depth stress.
    let n = 60;
    let doc: String = (0..n)
        .map(|i| {
            format!(
                "<http://x/n{i}> <http://p/next> <http://x/n{}> .\n",
                (i + 1) % n
            )
        })
        .collect();
    let rdf = Arc::new(RdfGraph::parse_ntriples(&doc).unwrap());
    let mut patterns = String::new();
    for i in 0..40 {
        patterns.push_str(&format!("?v{i} <http://p/next> ?v{} . ", i + 1));
    }
    let query = format!("SELECT * WHERE {{ {patterns} }}");
    let options = ExecOptions::benchmark(Duration::from_secs(20));
    for engine in all_engines(rdf) {
        let outcome = engine.execute_sparql(&query, &options).expect("executes");
        if !outcome.timed_out() {
            // A chain of length 40 embeds once per starting position.
            assert_eq!(outcome.embedding_count, n as u128, "{}", engine.name());
        }
    }
}

#[test]
fn unicode_iris_and_literals_survive_the_pipeline() {
    let doc = "<http://x/Zürich> <http://p/名前> \"取り引き — émoji 😀\" .\n\
               <http://x/Zürich> <http://p/liegt_in> <http://x/Schweiz> .\n";
    let engine = AmberEngine::load_ntriples(doc).unwrap();
    let outcome = engine
        .run(&QueryRequest::sparql(
            "SELECT ?où WHERE { <http://x/Zürich> <http://p/liegt_in> ?où . }",
        ))
        .unwrap();
    assert_eq!(outcome.embedding_count, 1);
    assert_eq!(outcome.bindings[0][0].as_ref(), "http://x/Schweiz");

    let literal_query = "SELECT ?s WHERE { ?s <http://p/名前> \"取り引き — émoji 😀\" . }";
    let outcome = engine.run(&QueryRequest::sparql(literal_query)).unwrap();
    assert_eq!(outcome.embedding_count, 1);
}

#[test]
fn duplicate_patterns_do_not_double_count() {
    let engine = AmberEngine::from_graph(paper_graph());
    let y = amber_multigraph::paper::PREFIX_Y;
    let single = format!("SELECT * WHERE {{ ?p <{y}wasBornIn> ?c . }}");
    let doubled = format!("SELECT * WHERE {{ ?p <{y}wasBornIn> ?c . ?p <{y}wasBornIn> ?c . }}");
    let a = engine.run(&QueryRequest::sparql(&single)).unwrap();
    let b = engine.run(&QueryRequest::sparql(&doubled)).unwrap();
    assert_eq!(a.embedding_count, b.embedding_count);
    // And the same across baselines.
    let rdf = Arc::new(paper_graph());
    for engine in all_engines(rdf) {
        let out = engine
            .execute_sparql(&doubled, &ExecOptions::default())
            .unwrap();
        assert_eq!(out.embedding_count, a.embedding_count, "{}", engine.name());
    }
}

/// The paper query, one-shot, under `options`.
fn paper_query_with(
    engine: &AmberEngine,
    options: ExecOptions,
) -> Result<amber::QueryOutcome, Error> {
    engine.run(&QueryRequest::sparql(&paper_query_text()).with_options(options))
}

#[test]
fn pre_cancelled_token_yields_cancelled_status() {
    let engine = AmberEngine::from_graph(paper_graph());
    let token = CancelToken::new();
    token.cancel();
    let options = ExecOptions::default().with_cancel(token);
    let outcome =
        paper_query_with(&engine, options).expect("cancellation is a status, not an error");
    assert_eq!(outcome.status, QueryStatus::Cancelled);
    assert!(outcome.is_partial());
    assert!(
        outcome.bindings.is_empty(),
        "a cancelled query must not materialize bindings"
    );
}

#[test]
fn cancellation_is_distinct_from_timeout() {
    let engine = AmberEngine::from_graph(paper_graph());
    let token = CancelToken::new();
    token.cancel();
    // Both pressures at once: cancellation wins the status (the user asked
    // for the abort; the deadline is incidental).
    let options = ExecOptions::default()
        .with_cancel(token)
        .with_timeout(Duration::ZERO);
    let outcome = paper_query_with(&engine, options).unwrap();
    assert_eq!(outcome.status, QueryStatus::Cancelled);
    assert!(!outcome.timed_out());
}

#[test]
fn unfired_token_changes_nothing() {
    let engine = AmberEngine::from_graph(paper_graph());
    let token = CancelToken::new();
    let options = ExecOptions::default().with_cancel(token.clone());
    let outcome = paper_query_with(&engine, options).unwrap();
    assert_eq!(outcome.status, QueryStatus::Completed);
    assert_eq!(outcome.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
    assert!(!token.is_cancelled());
}

#[test]
fn cancelled_query_never_stores_into_the_result_cache() {
    // Regression guard (mirrors the timed-out variant in the engine unit
    // tests): a cancelled partial outcome must be *bypassed* by the result
    // cache, so a clean repeat recomputes the full answer.
    let engine = AmberEngine::from_graph(paper_graph());
    let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
    let options = ExecOptions::batch();
    let mut session = engine.create_session(&options);

    let token = CancelToken::new();
    token.cancel();
    let cancelled = engine
        .run_in(
            &QueryRequest::parsed(&q).with_options(options.clone().with_cancel(token)),
            &mut session,
        )
        .unwrap();
    assert_eq!(cancelled.status, QueryStatus::Cancelled);

    let repeat = engine
        .run_in(
            &QueryRequest::parsed(&q).with_options(options),
            &mut session,
        )
        .unwrap();
    assert_eq!(repeat.status, QueryStatus::Completed);
    assert_eq!(repeat.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
    let stats = session.plan_stats();
    assert_eq!(
        stats.results.hits, 0,
        "the cancelled outcome must not be served to anyone: {stats:?}"
    );
    assert_eq!(session.search_stats().cancellations, 1);
}

#[test]
fn tiny_memory_budget_degrades_to_a_typed_partial() {
    let engine = AmberEngine::from_graph(paper_graph());
    // One byte: the governor blows through every rung of the ladder on the
    // first checkpoint. The query must come back as a clean partial, never
    // an abort or a wrong answer.
    let options = ExecOptions::default().with_memory_budget(1);
    let outcome =
        paper_query_with(&engine, options).expect("budget exhaustion is a status, not an error");
    assert_eq!(outcome.status, QueryStatus::BudgetExceeded);
    assert!(outcome.is_partial());
}

#[test]
fn generous_memory_budget_is_invisible() {
    let engine = AmberEngine::from_graph(paper_graph());
    let baseline = paper_query_with(&engine, ExecOptions::default()).unwrap();
    let governed =
        paper_query_with(&engine, ExecOptions::default().with_memory_budget(1 << 30)).unwrap();
    assert_eq!(governed.status, QueryStatus::Completed);
    assert_eq!(governed.embedding_count, baseline.embedding_count);
    assert_eq!(governed.bindings, baseline.bindings);
}

#[test]
fn budget_degradation_is_recorded_in_session_stats() {
    let engine = AmberEngine::from_graph(paper_graph());
    let options = ExecOptions::default().with_memory_budget(1);
    let mut session = engine.create_session(&options);
    let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
    let outcome = engine
        .run_in(
            &QueryRequest::parsed(&q).with_options(options),
            &mut session,
        )
        .unwrap();
    assert_eq!(outcome.status, QueryStatus::BudgetExceeded);
    assert!(
        session.search_stats().degradation_steps >= 1,
        "the governor's ladder steps must surface in SearchStats: {:?}",
        session.search_stats()
    );
    // The session survives: an ungoverned repeat gets the full answer.
    let clean = engine
        .run_in(&QueryRequest::parsed(&q), &mut session)
        .unwrap();
    assert_eq!(clean.status, QueryStatus::Completed);
    assert_eq!(clean.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
}

#[test]
fn self_loop_queries_agree() {
    let doc = "<http://x/a> <http://p/likes> <http://x/a> .\n\
               <http://x/a> <http://p/likes> <http://x/b> .\n\
               <http://x/b> <http://p/likes> <http://x/a> .\n";
    let rdf = Arc::new(RdfGraph::parse_ntriples(doc).unwrap());
    let query = "SELECT * WHERE { ?x <http://p/likes> ?x . ?x <http://p/likes> ?y . }";
    for engine in all_engines(rdf) {
        let out = engine
            .execute_sparql(query, &ExecOptions::default())
            .unwrap();
        // ?x = a (self loop), ?y ∈ {a, b}.
        assert_eq!(out.embedding_count, 2, "{}", engine.name());
    }
}

// ---------------------------------------------------------------------
// Per-tenant circuit breakers (deterministic: failures are driven by
// zero execution timeouts, not by chaos injection).
// ---------------------------------------------------------------------

mod breakers {
    use amber::{AmberEngine, Error, QueryRequest, QueryStatus, TripCause};
    use amber_serve::{BreakerConfig, BreakerState, ServeConfig, Server, SubmitOptions};
    use std::sync::Arc;
    use std::time::Duration;

    const EDGE: &str = "SELECT * WHERE { ?s <http://e/p> ?o . }";
    const CHAIN: &str = "SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/p> ?z . }";

    fn serve_engine() -> Arc<AmberEngine> {
        let triples = "\
<http://e/a> <http://e/p> <http://e/b> .\n\
<http://e/b> <http://e/p> <http://e/c> .\n";
        Arc::new(AmberEngine::load_ntriples(triples).unwrap())
    }

    fn server(threshold: u32, cooldown: Duration) -> Server {
        Server::start(
            serve_engine(),
            ServeConfig {
                workers: 1,
                breaker: Some(BreakerConfig {
                    failure_threshold: threshold,
                    cooldown,
                }),
                ..ServeConfig::default()
            },
        )
    }

    /// A zero-timeout submission: deterministically `TimedOut` (the
    /// deadline fires on its first poll), a hard failure for the breaker.
    fn timed_out_request(server: &Server, tenant: &str) {
        let ticket = server
            .submit_sparql_with(
                tenant,
                CHAIN,
                SubmitOptions::new().with_timeout(Duration::ZERO),
            )
            .expect("admitted");
        assert_eq!(ticket.wait().unwrap().status, QueryStatus::TimedOut);
    }

    #[test]
    fn trips_exactly_at_the_consecutive_failure_threshold() {
        let server = server(3, Duration::from_secs(3600));
        // Two failures, a success in between: the run resets, no trip.
        timed_out_request(&server, "a");
        timed_out_request(&server, "a");
        assert_eq!(
            server
                .submit_sparql("a", EDGE)
                .unwrap()
                .wait()
                .unwrap()
                .status,
            QueryStatus::Completed
        );
        // Three consecutive failures: the third trips the breaker.
        for _ in 0..3 {
            timed_out_request(&server, "a");
        }
        match server.submit_sparql("a", EDGE) {
            Err(Error::CircuitOpen { cause, retry_after }) => {
                assert_eq!(cause, TripCause::TimedOut);
                assert!(retry_after <= Duration::from_secs(3600));
                assert!(retry_after > Duration::ZERO, "mid-cooldown hint");
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        let report = server.shutdown();
        assert_eq!(report.breaker_trips, 1);
        assert_eq!(report.breaker_fast_fails, 1);
        assert_eq!(report.breaker_for("a").unwrap().state, BreakerState::Open);
    }

    #[test]
    fn half_open_probe_success_closes_the_breaker() {
        let server = server(1, Duration::ZERO);
        timed_out_request(&server, "a"); // trips (threshold 1)
                                         // Zero cooldown: the next submission is the half-open probe. It
                                         // succeeds, so the breaker closes and everything flows again.
        assert_eq!(
            server
                .submit_sparql("a", EDGE)
                .unwrap()
                .wait()
                .unwrap()
                .status,
            QueryStatus::Completed
        );
        assert_eq!(
            server
                .submit_sparql("a", EDGE)
                .unwrap()
                .wait()
                .unwrap()
                .status,
            QueryStatus::Completed
        );
        let report = server.shutdown();
        assert_eq!(report.breaker_trips, 1);
        assert_eq!(report.breaker_for("a").unwrap().state, BreakerState::Closed);
        assert_eq!(report.served_for("a"), 3);
    }

    #[test]
    fn half_open_probe_failure_reopens_with_a_fresh_cooldown() {
        let server = server(1, Duration::ZERO);
        timed_out_request(&server, "a"); // trips
        timed_out_request(&server, "a"); // the probe itself fails hard
        let report = server.shutdown();
        assert_eq!(report.breaker_trips, 2, "a failed probe is a fresh trip");
        assert_eq!(report.breaker_for("a").unwrap().state, BreakerState::Open);
    }

    #[test]
    fn tripped_tenant_fast_fails_while_neighbors_complete_identically() {
        let server = server(1, Duration::from_secs(3600));
        let engine = serve_engine();
        let baseline = engine.run(&QueryRequest::sparql(EDGE)).unwrap();
        timed_out_request(&server, "noisy"); // trips the noisy tenant
        assert!(matches!(
            server.submit_sparql("noisy", EDGE),
            Err(Error::CircuitOpen { .. })
        ));
        // Healthy tenants are untouched — and bit-identical to a private
        // engine run.
        for tenant in ["quiet-1", "quiet-2"] {
            let outcome = server.submit_sparql(tenant, EDGE).unwrap().wait().unwrap();
            assert_eq!(outcome.status, QueryStatus::Completed);
            assert_eq!(outcome.embedding_count, baseline.embedding_count);
            assert_eq!(outcome.variables, baseline.variables);
            assert_eq!(outcome.bindings.to_vec(), baseline.bindings.to_vec());
        }
        let report = server.shutdown();
        assert_eq!(
            report.breaker_for("noisy").unwrap().state,
            BreakerState::Open
        );
        assert_eq!(
            report.breaker_for("quiet-1").unwrap().state,
            BreakerState::Closed
        );
        assert_eq!(report.served_for("quiet-1"), 1);
        assert_eq!(report.served_for("quiet-2"), 1);
    }

    #[test]
    fn breakers_disabled_by_default_never_fast_fail() {
        let server = Server::start(
            serve_engine(),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        for _ in 0..6 {
            timed_out_request(&server, "a");
        }
        // No breaker configured: failure history never blocks admission.
        assert_eq!(
            server
                .submit_sparql("a", EDGE)
                .unwrap()
                .wait()
                .unwrap()
                .status,
            QueryStatus::Completed
        );
        let report = server.shutdown();
        assert_eq!(report.breaker_trips, 0);
        assert_eq!(report.breaker_fast_fails, 0);
    }
}
