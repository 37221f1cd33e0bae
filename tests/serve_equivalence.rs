//! Differential tests for the concurrent serving layer: N client threads
//! pushing mixed tenant streams through one [`Server`] must produce
//! results bit-identical to executing every stream sequentially, cache-free,
//! on a private engine session — whatever the interleaving, whatever the
//! cache state, however many serving workers overlap on the shared
//! execution pool.

use amber::{AmberEngine, ExecOptions, QueryOutcome, QueryRequest};
use amber_datagen::synthetic::{self, SyntheticConfig};
use amber_datagen::{GeneratedQuery, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::RdfGraph;
use amber_serve::{ServeConfig, ServeError, Server, SubmitOptions, Ticket};
use amber_sparql::{Projection, SelectQuery, TermPattern};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

fn dense_graph(seed: u64) -> RdfGraph {
    let config = SyntheticConfig {
        entity_namespace: "http://serve/e/".into(),
        predicate_namespace: "http://serve/p/".into(),
        entities_per_scale: 120,
        resource_predicates: 6,
        literal_predicates: 3,
        mean_out_degree: 6.0,
        attachment_bias: 0.8,
        predicate_skew: 1.0,
        attribute_probability: 0.4,
        max_attributes: 3,
        literal_values: 10,
    };
    RdfGraph::from_triples(&synthetic::generate(&config, seed))
}

/// Rename every variable `x` → `t<salt>_x`: alpha-equivalent spellings
/// that share a canonical plan.
fn rename_vars(query: &SelectQuery, salt: u64) -> SelectQuery {
    let rename = |name: &str| -> Box<str> { format!("t{salt}_{name}").into() };
    let term = |t: &TermPattern| match t {
        TermPattern::Variable(v) => TermPattern::Variable(rename(v)),
        constant => constant.clone(),
    };
    SelectQuery {
        projection: match &query.projection {
            Projection::Star => Projection::Star,
            Projection::Variables(vars) => {
                Projection::Variables(vars.iter().map(|v| rename(v)).collect())
            }
        },
        distinct: query.distinct,
        patterns: query
            .patterns
            .iter()
            .map(|p| amber_sparql::TriplePattern {
                subject: term(&p.subject),
                predicate: term(&p.predicate),
                object: term(&p.object),
            })
            .collect(),
    }
}

/// Observable fingerprint: count, timeout flag, headers, order-normalized
/// rows.
type Observed = (u128, bool, Vec<Box<str>>, Vec<Vec<Box<str>>>);

fn normalized(outcome: &QueryOutcome) -> Observed {
    let mut rows = outcome.bindings.to_vec();
    rows.sort();
    (
        outcome.embedding_count,
        outcome.timed_out(),
        outcome.variables.clone(),
        rows,
    )
}

/// One tenant's request stream: originals, renamed twins (shared plans),
/// and verbatim repeats (result-cache hits), shuffled per tenant.
fn tenant_stream(base: &[GeneratedQuery], tenant_salt: u64) -> Vec<SelectQuery> {
    let mut stream = Vec::new();
    for generated in base {
        let q = &generated.query;
        stream.push(q.clone());
        stream.push(rename_vars(q, tenant_salt));
        stream.push(q.clone()); // verbatim repeat
    }
    let mut rng = StdRng::seed_from_u64(tenant_salt ^ 0xA5A5);
    stream.shuffle(&mut rng);
    stream
}

/// Serve every tenant's stream concurrently (one client thread per tenant)
/// and require each tenant's results to equal a sequential, cache-free
/// execution of its stream.
fn assert_serving_matches_sequential(
    engine: &Arc<AmberEngine>,
    streams: &[(String, Vec<SelectQuery>)],
    workers: usize,
) {
    let bare = ExecOptions::default().with_max_results(200);
    let expected: Vec<Vec<Observed>> = streams
        .iter()
        .map(|(_, queries)| {
            queries
                .iter()
                .map(|q| {
                    normalized(
                        &engine
                            .execute_parsed(q, &bare)
                            .expect("sequential execution succeeds"),
                    )
                })
                .collect()
        })
        .collect();

    let server = Server::start(
        Arc::clone(engine),
        ServeConfig {
            workers,
            queue_capacity: 4096,
            options: ExecOptions::batch().with_max_results(200),
            ..ServeConfig::default()
        },
    );
    let observed: Vec<Vec<Observed>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|(tenant, queries)| {
                let server = &server;
                scope.spawn(move || {
                    // Submit the whole stream first (tickets preserve the
                    // tenant's order), then redeem.
                    let tickets: Vec<Ticket> = queries
                        .iter()
                        .map(|q| server.submit(tenant, q.clone()).expect("admitted"))
                        .collect();
                    tickets
                        .into_iter()
                        .map(|t| normalized(&t.wait().expect("served")))
                        .collect::<Vec<Observed>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let report = server.shutdown();

    for ((tenant, queries), (got, want)) in streams.iter().zip(observed.iter().zip(&expected)) {
        assert_eq!(
            got, want,
            "tenant {tenant}: concurrent serving diverged from sequential execution"
        );
        assert_eq!(report.served_for(tenant), queries.len() as u64);
    }
    assert_eq!(report.rejected, 0, "the queue was sized for the workload");
    assert_eq!(
        report.plan_stats.result_hit_copied_bytes, 0,
        "result-cache hits must serve shared rows: {:?}",
        report.plan_stats
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The tentpole property: mixed multi-tenant streams served
    /// concurrently are observationally identical to sequential cache-free
    /// execution.
    #[test]
    fn concurrent_serving_equals_sequential_execution(
        graph_seed in 0u64..300,
        workload_seed in 0u64..300,
        star_size in 3usize..6,
        complex_size in 4usize..6,
    ) {
        let rdf = Arc::new(dense_graph(graph_seed));
        let engine = Arc::new(AmberEngine::from_graph(Arc::clone(&rdf)));

        let mut generator = WorkloadGenerator::new(&rdf, workload_seed);
        let mut base = generator.generate_many(&WorkloadConfig::new(QueryShape::Star, star_size), 2);
        let mut complex_config = WorkloadConfig::new(QueryShape::Complex, complex_size);
        complex_config.constant_iri_probability = 0.4;
        base.extend(generator.generate_many(&complex_config, 2));
        prop_assume!(!base.is_empty());

        let streams: Vec<(String, Vec<SelectQuery>)> = (0..3u64)
            .map(|t| (format!("tenant-{t}"), tenant_stream(&base, t)))
            .collect();
        assert_serving_matches_sequential(&engine, &streams, 3);
    }

    /// Deadline-annotated serving stays equivalent *modulo the typed
    /// lifecycle outcomes*: every request either matches sequential
    /// execution bit-for-bit, reports a typed partial (`TimedOut`), or is
    /// shed with the typed `DeadlineExpired` — never a wrong answer, never
    /// a lost ticket. Zero-budget requests are always shed, and a tenant
    /// whose whole stream is shed does zero engine-side work.
    #[test]
    fn deadline_annotated_serving_is_equivalent_modulo_typed_shedding(
        graph_seed in 0u64..300,
        workload_seed in 0u64..300,
        star_size in 3usize..6,
    ) {
        let rdf = Arc::new(dense_graph(graph_seed));
        let engine = Arc::new(AmberEngine::from_graph(Arc::clone(&rdf)));
        let mut generator = WorkloadGenerator::new(&rdf, workload_seed);
        let base = generator.generate_many(&WorkloadConfig::new(QueryShape::Star, star_size), 3);
        prop_assume!(!base.is_empty());

        let bare = ExecOptions::default().with_max_results(200);
        let expected: Vec<Observed> = base
            .iter()
            .map(|g| normalized(&engine.execute_parsed(&g.query, &bare).expect("sequential")))
            .collect();

        let server = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                workers: 3,
                queue_capacity: 4096,
                options: ExecOptions::batch().with_max_results(200),
                ..ServeConfig::default()
            },
        );
        // Three annotated tenants submit the base workload concurrently:
        // unbounded (no budget), generous (60 s — never expires in queue),
        // and tight (5 ms — any typed outcome is legal). A fourth tenant
        // submits everything with a zero budget: always shed.
        let classes: [(&str, Option<std::time::Duration>); 4] = [
            ("unbounded", None),
            ("generous", Some(std::time::Duration::from_secs(60))),
            ("tight", Some(std::time::Duration::from_millis(5))),
            ("shed-only", Some(std::time::Duration::ZERO)),
        ];
        let outcomes: Vec<(usize, Vec<Result<QueryOutcome, ServeError>>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = classes
                    .iter()
                    .enumerate()
                    .map(|(class_idx, (tenant, budget))| {
                        let server = &server;
                        let base = &base;
                        scope.spawn(move || {
                            let opts = budget.map_or_else(SubmitOptions::new, |b| {
                                SubmitOptions::new().with_budget(b)
                            });
                            let tickets: Vec<Ticket> = base
                                .iter()
                                .map(|g| {
                                    server
                                        .submit_with(tenant, g.query.clone(), opts.clone())
                                        .expect("admitted")
                                })
                                .collect();
                            (class_idx, tickets.into_iter().map(Ticket::wait).collect())
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
        let report = server.shutdown();

        for (class_idx, results) in &outcomes {
            let (tenant, budget) = classes[*class_idx];
            for (result, want) in results.iter().zip(&expected) {
                match (tenant, result) {
                    // No budget, or one that cannot expire in this test's
                    // queue: bit-identical to sequential.
                    ("unbounded" | "generous", Ok(outcome)) => {
                        prop_assert_eq!(&normalized(outcome), want, "tenant {}", tenant);
                    }
                    // Tight budgets admit every typed outcome — but a
                    // completed answer must still be the right answer.
                    ("tight", Ok(outcome)) => {
                        if !outcome.timed_out() {
                            prop_assert_eq!(&normalized(outcome), want, "tenant {}", tenant);
                        }
                    }
                    ("tight", Err(ServeError::DeadlineExpired { budget: b, .. })) => {
                        prop_assert_eq!(*b, budget.unwrap());
                    }
                    ("shed-only", Err(ServeError::DeadlineExpired { budget: b, waited })) => {
                        prop_assert_eq!(*b, std::time::Duration::ZERO);
                        prop_assert!(*waited >= *b);
                    }
                    (_, other) => {
                        prop_assert!(false, "tenant {}: unexpected outcome {:?}", tenant, other);
                    }
                }
            }
        }
        // Zero-budget requests are always shed — and shed requests do zero
        // engine-side work: the tenant's session never executed a query
        // and never visited a node.
        prop_assert_eq!(report.shed_for("shed-only"), base.len() as u64);
        prop_assert_eq!(report.served_for("shed-only"), 0);
        let shed_only = report
            .tenants
            .iter()
            .find(|t| t.tenant == "shed-only")
            .expect("tenant reported");
        prop_assert_eq!(shed_only.queries_executed, 0);
        prop_assert_eq!(shed_only.search.nodes, 0);
        prop_assert_eq!(report.shed_for("unbounded"), 0);
        prop_assert_eq!(report.shed_for("generous"), 0);
        prop_assert_eq!(report.rejected, 0);
    }
}

#[test]
fn admission_control_rejects_beyond_capacity_and_serves_the_rest() {
    let rdf = Arc::new(dense_graph(7));
    let engine = Arc::new(AmberEngine::from_graph(Arc::clone(&rdf)));
    let mut generator = WorkloadGenerator::new(&rdf, 77);
    let base = generator.generate_many(&WorkloadConfig::new(QueryShape::Star, 4), 1);
    assert!(!base.is_empty());
    let query = base[0].query.clone();

    let capacity = 4;
    let server = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 2,
            queue_capacity: capacity,
            paused: true, // deterministic: the queue fills before any dispatch
            ..ServeConfig::default()
        },
    );
    let accepted: Vec<Ticket> = (0..capacity)
        .map(|i| {
            server
                .submit(&format!("tenant-{}", i % 2), query.clone())
                .expect("under capacity")
        })
        .collect();
    // The queue is full: the next submission is rejected immediately, with
    // the typed error, without blocking and without losing earlier work.
    match server.submit("tenant-0", query.clone()) {
        Err(ServeError::Overloaded {
            capacity: c,
            queued,
            retry_after,
        }) => {
            assert_eq!(c, capacity);
            assert_eq!(queued, capacity, "the observed depth rides along");
            assert!(retry_after > std::time::Duration::ZERO, "actionable hint");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    server.resume();
    let baseline = engine
        .execute_parsed(&query, &ExecOptions::default())
        .expect("baseline");
    for ticket in accepted {
        let outcome = ticket.wait().expect("accepted requests are served");
        assert_eq!(outcome.embedding_count, baseline.embedding_count);
    }
    let report = server.shutdown();
    assert_eq!(report.served(), capacity as u64);
    assert_eq!(report.rejected, 1);
}

/// Each tenant plans in its own session: four tenants send the same
/// queries under their own variable spellings (alpha-equivalent twins).
/// Every answer carries its sender's headers and equals a cache-free
/// `run`; each tenant derives one plan per distinct canonical query and
/// serves every twin from it; a stale prepared plan fails only itself.
#[test]
fn tenants_keep_their_own_plans_headers_and_failures() {
    let rdf = Arc::new(dense_graph(21));
    let engine = Arc::new(AmberEngine::from_graph(Arc::clone(&rdf)));
    let mut generator = WorkloadGenerator::new(&rdf, 2121);
    let mut base = generator.generate_many(&WorkloadConfig::new(QueryShape::Complex, 4), 2);
    base.extend(generator.generate_many(&WorkloadConfig::new(QueryShape::Star, 3), 2));
    assert!(!base.is_empty());
    let distinct: std::collections::HashSet<SelectQuery> = base
        .iter()
        .map(|g| amber_sparql::canonicalize(&g.query))
        .collect();

    let server = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 2,
            options: ExecOptions::batch().with_max_results(200),
            ..ServeConfig::default()
        },
    );
    // A stale prepared plan from a *different* engine fails only its own
    // request; the tenants keep serving afterwards.
    let foreign = AmberEngine::from_graph(dense_graph(22));
    let stale = foreign
        .prepare(&base[0].query)
        .expect("prepares on its own engine");
    let poisoned = engine.execute_prepared(&stale, &ExecOptions::default());
    assert!(poisoned.is_err(), "stale plans are rejected, not executed");

    let tenants: Vec<String> = (0..4).map(|t| format!("tenant-{t}")).collect();
    std::thread::scope(|scope| {
        for (salt, tenant) in tenants.iter().enumerate() {
            let (server, engine, base) = (&server, &engine, &base);
            scope.spawn(move || {
                for g in base {
                    for q in [rename_vars(&g.query, salt as u64), g.query.clone()] {
                        let want = engine
                            .run(&QueryRequest::parsed(&q).with_max_results(200))
                            .expect("cache-free run");
                        let got = server
                            .submit(tenant, q.clone())
                            .expect("admitted")
                            .wait()
                            .expect("served");
                        assert_eq!(normalized(&got), normalized(&want), "{tenant}");
                        assert_eq!(got.variables, want.variables, "{tenant}: own headers");
                    }
                }
            });
        }
    });
    let report = server.shutdown();
    for tenant in &report.tenants {
        assert_eq!(tenant.served, 2 * base.len() as u64, "{}", tenant.tenant);
        let plans = &tenant.plan_stats.plans;
        assert_eq!(
            plans.misses,
            distinct.len() as u64,
            "{}: one derivation per distinct query: {plans:?}",
            tenant.tenant
        );
        assert_eq!(plans.hits + plans.misses, 2 * base.len() as u64);
    }
    assert_eq!(report.tenants.len(), tenants.len());
}

/// What one request came to, with the clock-dependent fields (`waited`,
/// `retry_after`) left out.
fn settled(result: &Result<QueryOutcome, ServeError>) -> String {
    match result {
        Ok(outcome) => format!("{:?} {:?}", outcome.status, normalized(outcome)),
        Err(ServeError::DeadlineExpired { budget, .. }) => format!("shed after {budget:?}"),
        Err(ServeError::CircuitOpen { cause, .. }) => format!("circuit open: {cause}"),
        Err(other) => format!("{other:?}"),
    }
}

/// `Server::execute` is `submit_sparql_with(..)?.wait()`: the same seeded
/// stream — healthy, zero-timeout (breaker failures), zero-budget (sheds)
/// and, once a breaker has tripped, fast-failed requests — settles
/// identically whether every request runs inline on the client's thread
/// or is queued on a paused server and drained by the workers.
#[test]
fn execute_matches_submit_request_for_request_and_counter_for_counter() {
    use rand::Rng;
    use std::time::Duration;

    const TENANTS: [&str; 3] = ["steady", "noisy", "mixed"];
    const ROUNDS: usize = 24;
    for seed in [5u64, 6, 7] {
        let rdf = Arc::new(dense_graph(seed));
        let mut generator = WorkloadGenerator::new(&rdf, seed ^ 0x5EED);
        let texts: Vec<String> = generator
            .generate_many(&WorkloadConfig::new(QueryShape::Star, 4), 4)
            .into_iter()
            .map(|g| g.text)
            .collect();
        assert!(!texts.is_empty());

        // One request per tenant per round. `noisy` opens with two
        // zero-timeout requests, so its breaker trips in round 2.
        let mut rng = StdRng::seed_from_u64(seed);
        let rounds: Vec<Vec<(&str, &str, SubmitOptions)>> = (0..ROUNDS)
            .map(|round| {
                TENANTS
                    .iter()
                    .map(|&tenant| {
                        let text = texts[rng.gen_range(0..texts.len())].as_str();
                        let opts = match rng.gen_range(0..10) {
                            _ if tenant == "noisy" && round < 2 => {
                                SubmitOptions::new().with_timeout(Duration::ZERO)
                            }
                            0 if tenant == "mixed" => {
                                SubmitOptions::new().with_timeout(Duration::ZERO)
                            }
                            1 | 2 if tenant != "steady" => {
                                SubmitOptions::new().with_budget(Duration::ZERO)
                            }
                            _ => SubmitOptions::new(),
                        };
                        (tenant, text, opts)
                    })
                    .collect()
            })
            .collect();

        let start = |paused: bool| {
            Server::start(
                // An engine each, so the two runs share nothing.
                Arc::new(AmberEngine::from_graph(Arc::clone(&rdf))),
                ServeConfig {
                    workers: 2,
                    paused,
                    breaker: Some(amber_serve::BreakerConfig {
                        failure_threshold: 2,
                        cooldown: Duration::from_secs(3600),
                    }),
                    options: ExecOptions::batch().with_max_results(200),
                    ..ServeConfig::default()
                },
            )
        };

        let inline = start(false);
        let inline_settled: Vec<String> = rounds
            .iter()
            .flatten()
            .map(|(tenant, text, opts)| settled(&inline.execute(tenant, text, opts.clone())))
            .collect();
        let inline_report = inline.shutdown();

        // A round is admitted whole while paused, then drained: every
        // tenant's request n is answered before its request n + 1 is
        // admitted, as on the inline server.
        let queued = start(true);
        let mut queued_settled = Vec::new();
        for round in &rounds {
            queued.pause();
            let tickets: Vec<Result<Ticket, ServeError>> = round
                .iter()
                .map(|(tenant, text, opts)| queued.submit_sparql_with(tenant, text, opts.clone()))
                .collect();
            queued.resume();
            for ticket in tickets {
                queued_settled.push(settled(&ticket.and_then(Ticket::wait)));
            }
        }
        let queued_report = queued.shutdown();

        assert_eq!(inline_settled, queued_settled, "seed {seed}");
        assert!(
            inline_settled.iter().any(|s| s.starts_with("circuit open")),
            "seed {seed}: the stream never exercised a tripped breaker"
        );
        for (a, b) in inline_report.tenants.iter().zip(&queued_report.tenants) {
            assert_eq!(a.tenant, b.tenant);
            assert_eq!(a.served, b.served, "{}", a.tenant);
            assert_eq!(a.deadline_shed, b.deadline_shed, "{}", a.tenant);
            assert_eq!(a.queries_executed, b.queries_executed, "{}", a.tenant);
            assert_eq!(a.breaker, b.breaker, "{}", a.tenant);
            assert_eq!(a.plan_stats, b.plan_stats, "{}", a.tenant);
        }
        assert_eq!(inline_report.rejected, queued_report.rejected);
        let dispatched = inline_report.served() + inline_report.deadline_shed;
        assert_eq!(
            queued_report.served() + queued_report.deadline_shed,
            dispatched
        );
        // One client thread never contends with itself; a paused server
        // never runs anything inline.
        assert_eq!(
            (
                inline_report.inline_dispatches,
                inline_report.queued_dispatches
            ),
            (dispatched, 0)
        );
        assert_eq!(
            (
                queued_report.inline_dispatches,
                queued_report.queued_dispatches
            ),
            (0, dispatched)
        );
    }
}
