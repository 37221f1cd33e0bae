//! Chaos differential tests: under any injected fault — panics, scheduling
//! delays, spurious allocation failures — a query must return either the
//! bit-identical clean answer or a clean typed error/partial status. Never
//! a wrong answer, never a hang, never a poisoned engine.
//!
//! Chaos arming is process-global (`amber_util::fault`), so every test in
//! this binary serializes on [`SERIAL`]; unarmed suites live in their own
//! binaries (separate processes) and never observe an armed window.

use amber::{AmberEngine, EngineError, Error, ExecOptions, QueryRequest, QueryStatus};
use amber_multigraph::paper::{paper_graph, paper_query_text, PAPER_QUERY_EMBEDDINGS};
use amber_serve::{ServeConfig, Server};
use amber_util::fault;
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Serializes the whole binary: a test's clean (unarmed) phase must never
/// overlap another test's armed window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A poisoned lock just means an earlier test failed; the serialization
    // it provides is still sound.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `f` with a panic hook that swallows the expected `chaos: injected
/// panic` messages (they are trapped and re-surfaced as typed errors; the
/// default hook would spam stderr once per injection). Every other panic
/// still reports normally.
fn with_quiet_chaos_panics<T>(f: impl FnOnce() -> T) -> T {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("chaos:") {
            eprintln!("{info}");
        }
    }));
    let out = f();
    let _ = std::panic::take_hook();
    std::panic::set_hook(default);
    out
}

/// The paper query, run one-shot with default options.
fn paper_baseline(engine: &AmberEngine) -> amber::QueryOutcome {
    engine
        .run(&QueryRequest::sparql(&paper_query_text()))
        .unwrap()
}

/// Engine-side fault points, exercised through `run_in`.
const POINTS: [&str; 2] = ["matcher-candidate", "index-probe"];
/// Serving-loop fault points, exercised through a [`Server`] (the engine
/// proptest never reaches them; they get their own differential below).
const SERVE_POINTS: [&str; 3] = ["serve-admit", "serve-dispatch", "serve-drain"];
const KINDS: [&str; 3] = ["panic", "delay", "alloc-fail"];
const RATES: [u64; 3] = [1, 7, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core property: any fault spec — the outcome is the
    /// bit-identical clean answer or a typed quarantined error (only a
    /// panic may give the error). Afterwards the same session serves the
    /// query correctly.
    #[test]
    fn chaos_yields_answer_or_typed_error(
        point in 0..POINTS.len(),
        kind in 0..KINDS.len(),
        rate in 0..RATES.len(),
        seed in 1..10_000u64,
        cached in 0..2u8,
    ) {
        let _serial = serial();
        let (point, kind, rate) = (POINTS[point], KINDS[kind], RATES[rate]);
        let engine = AmberEngine::from_graph(paper_graph());
        let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let base = if cached == 1 { ExecOptions::batch() } else { ExecOptions::default() };
        let request = QueryRequest::parsed(&q).with_options(base);

        let baseline = engine.run(&request).unwrap();
        prop_assert_eq!(baseline.status, QueryStatus::Completed);
        prop_assert_eq!(baseline.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);

        let mut session = engine.create_session(request.options());
        let spec = format!("{seed}:{point}={kind}@{rate}");
        let chaotic = {
            let _guard = fault::override_spec(&spec).expect("spec parses");
            with_quiet_chaos_panics(|| engine.run_in(&request, &mut session))
        };
        match chaotic {
            Ok(out) => match out.status {
                QueryStatus::Completed => {
                    prop_assert_eq!(out.embedding_count, baseline.embedding_count,
                        "wrong answer under {}", &spec);
                    prop_assert_eq!(&out.bindings, &baseline.bindings,
                        "wrong bindings under {}", &spec);
                }
                other => prop_assert!(false,
                    "unexpected status {:?} under {} (no deadline, no token)", other, &spec),
            },
            Err(Error::Engine(EngineError::Internal { task, payload })) => {
                prop_assert_eq!(kind, "panic",
                    "only panic faults may surface as Internal ({}: {} / {})",
                    &spec, task, payload);
            }
            Err(other) => prop_assert!(false, "untyped failure under {}: {}", &spec, other),
        }

        // Disarmed epilogue: the session must be reusable and correct — a quarantined panic poisons only its own query.
        let clean = engine.run_in(&request, &mut session).unwrap();
        prop_assert_eq!(clean.status, QueryStatus::Completed);
        prop_assert_eq!(clean.embedding_count, baseline.embedding_count);
        prop_assert_eq!(&clean.bindings, &baseline.bindings);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The serving-loop differential: any fault kind at any serve point —
    /// every submission either returns the bit-identical clean answer or
    /// a typed rejection/error; the server always
    /// drains; and a fresh disarmed server serves correctly afterwards.
    #[test]
    fn serve_chaos_yields_answer_or_typed_rejection(
        point in 0..SERVE_POINTS.len(),
        kind in 0..KINDS.len(),
        seed in 1..10_000u64,
    ) {
        let _serial = serial();
        let (point, kind) = (SERVE_POINTS[point], KINDS[kind]);
        let engine = Arc::new(AmberEngine::from_graph(paper_graph()));
        let baseline = paper_baseline(&engine);
        let spec = format!("{seed}:{point}={kind}@1");
        // Plain asserts inside the armed closure (prop_assert cannot cross
        // the closure boundary); a failure panics out through proptest.
        let report = {
            let _guard = fault::override_spec(&spec).expect("spec parses");
            with_quiet_chaos_panics(|| {
                let server = Server::start(
                    Arc::clone(&engine),
                    ServeConfig { workers: 2, ..ServeConfig::default() },
                );
                for _ in 0..4 {
                    match server.submit_sparql("a", &paper_query_text()) {
                        Ok(ticket) => match ticket.wait() {
                            Ok(out) => match out.status {
                                QueryStatus::Completed => assert_eq!(
                                    out.embedding_count, baseline.embedding_count,
                                    "wrong answer under {spec}"
                                ),
                                other => panic!("unexpected status {other:?} under {spec}"),
                            },
                            Err(Error::Engine(EngineError::Internal { .. })) => {
                                assert_eq!(kind, "panic", "typed Internal needs a panic ({spec})")
                            }
                            Err(other) => panic!("untyped ticket failure under {spec}: {other}"),
                        },
                        Err(Error::Engine(EngineError::Internal { task, .. })) => {
                            assert_eq!(kind, "panic", "{spec}");
                            assert_eq!(point, "serve-admit", "{spec}: failed in {task}");
                        }
                        Err(Error::Overloaded { queued, .. }) => {
                            assert_eq!(kind, "alloc-fail", "{spec}");
                            assert_eq!(point, "serve-admit", "{spec}");
                            assert_eq!(queued, 0, "spurious, not real, overload ({spec})");
                        }
                        Err(other) => panic!("untyped rejection under {spec}: {other}"),
                    }
                }
                // Shutdown inside the armed window: the drain must complete
                // whatever fires (serve-drain panics are trapped).
                server.shutdown()
            })
        };
        if point == "serve-drain" && kind == "panic" {
            prop_assert!(report.drain_faults >= 1, "trapped drain panics are counted");
        }

        // Disarmed epilogue: a fresh server over the same engine serves the
        // query in full.
        let server = Server::start(Arc::clone(&engine), ServeConfig::default());
        let clean = server.submit_sparql("a", &paper_query_text()).unwrap();
        prop_assert_eq!(clean.wait().unwrap().embedding_count, baseline.embedding_count);
        server.shutdown();
    }
}

#[test]
fn serve_admit_alloc_fail_is_spurious_typed_overload() {
    let _serial = serial();
    let engine = Arc::new(AmberEngine::from_graph(paper_graph()));
    let server = Server::start(Arc::clone(&engine), ServeConfig::default());
    {
        let _guard = fault::override_spec("5:serve-admit=alloc-fail@1").unwrap();
        match server.submit_sparql("a", &paper_query_text()) {
            Err(Error::Overloaded {
                capacity,
                queued,
                retry_after,
            }) => {
                assert_eq!(capacity, ServeConfig::default().queue_capacity);
                assert_eq!(queued, 0, "the queue was empty: the overload is injected");
                assert!(retry_after > std::time::Duration::ZERO);
            }
            other => panic!("expected spurious Overloaded, got {other:?}"),
        }
    }
    // Disarmed: the same server admits and serves normally.
    let ok = server.submit_sparql("a", &paper_query_text()).unwrap();
    assert_eq!(
        ok.wait().unwrap().embedding_count,
        PAPER_QUERY_EMBEDDINGS as u128
    );
    let report = server.shutdown();
    assert_eq!(report.rejected, 1);
    assert_eq!(report.served_for("a"), 1);
}

#[test]
fn serve_drain_panics_are_trapped_and_counted() {
    let _serial = serial();
    let engine = Arc::new(AmberEngine::from_graph(paper_graph()));
    let server = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    for _ in 0..2 {
        let t = server.submit_sparql("a", &paper_query_text()).unwrap();
        assert_eq!(
            t.wait().unwrap().embedding_count,
            PAPER_QUERY_EMBEDDINGS as u128
        );
    }
    // Left for the drain to run.
    let unredeemed = server.submit_sparql("a", &paper_query_text()).unwrap();
    let report = {
        let _guard = fault::override_spec("9:serve-drain=panic@1").unwrap();
        with_quiet_chaos_panics(|| server.shutdown())
    };
    assert_eq!(report.served_for("a"), 3, "the drain still completed");
    assert_eq!(
        unredeemed.wait().unwrap().embedding_count,
        PAPER_QUERY_EMBEDDINGS as u128
    );
    assert_eq!(
        report.drain_faults, 1,
        "the drain's one panic is trapped and counted"
    );
}

#[test]
fn serve_dispatch_panic_on_the_queued_path_leaves_tenant_and_neighbors_serving() {
    let _serial = serial();
    let engine = Arc::new(AmberEngine::from_graph(paper_graph()));
    let baseline = paper_baseline(&engine);
    let server = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    // Redeeming the later ticket first runs the earlier one on this
    // thread for nobody, and the fault point fires there: each panic must
    // reach its own ticket as a typed value.
    {
        let _guard = fault::override_spec("1:serve-dispatch=panic@1").unwrap();
        with_quiet_chaos_panics(|| {
            let earlier = server.submit_sparql("noisy", &paper_query_text()).unwrap();
            let later = server.submit_sparql("noisy", &paper_query_text()).unwrap();
            for t in [later, earlier] {
                match t.wait() {
                    Err(Error::Engine(EngineError::Internal { task, .. })) => {
                        assert_eq!(task, "serve dispatch")
                    }
                    other => panic!("expected a typed Internal error, got {other:?}"),
                }
            }
        });
    }
    // Disarmed: the same tenant's next ticket answers exactly, and a
    // neighbor completes bit-identically.
    for tenant in ["noisy", "quiet"] {
        let outcome = server
            .submit_sparql(tenant, &paper_query_text())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(outcome.embedding_count, baseline.embedding_count);
        assert_eq!(outcome.bindings, baseline.bindings);
    }
    let report = server.shutdown();
    assert_eq!(report.inline_dispatches, 3);
    assert_eq!(report.queued_dispatches, 1);
    assert_eq!(report.served_for("noisy"), 3);
    assert_eq!(report.served_for("quiet"), 1);
    assert_eq!(report.internal_faults, 0);
}

#[test]
fn serve_dispatch_panic_on_the_inline_path_leaves_tenant_and_caller_serving() {
    let _serial = serial();
    let engine = Arc::new(AmberEngine::from_graph(paper_graph()));
    let baseline = paper_baseline(&engine);
    let server = Server::start(Arc::clone(&engine), ServeConfig::default());
    let opts = amber_serve::SubmitOptions::new;
    // `execute` runs the dispatch — and so the fault point — on this
    // thread: the panic must come back as a value.
    let err = {
        let _guard = fault::override_spec("1:serve-dispatch=panic@1").unwrap();
        with_quiet_chaos_panics(|| server.execute("noisy", &paper_query_text(), opts()))
    };
    match err {
        Err(Error::Engine(EngineError::Internal { task, .. })) => {
            assert_eq!(task, "serve dispatch")
        }
        other => panic!("expected a typed Internal error, got {other:?}"),
    }
    assert_eq!(server.inflight(), 0, "the execution slot was released");
    // Disarmed: the same thread asks again for the same tenant. A tenant
    // left busy (or a slot left claimed) would leave this request waiting
    // for good; it runs on this thread and answers exactly.
    let outcome = server
        .execute("noisy", &paper_query_text(), opts())
        .unwrap();
    assert_eq!(outcome.embedding_count, baseline.embedding_count);
    assert_eq!(outcome.bindings, baseline.bindings);
    let report = server.shutdown();
    assert_eq!(report.inline_dispatches, 2);
    assert_eq!(report.queued_dispatches, 0);
    assert_eq!(report.served_for("noisy"), 2);
    assert_eq!(report.internal_faults, 0);
}

#[test]
fn session_that_trapped_a_matcher_panic_serves_the_next_query() {
    let _serial = serial();
    let engine = AmberEngine::from_graph(paper_graph());
    let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
    let request = QueryRequest::parsed(&q);
    let mut session = engine.create_session(request.options());

    let err = {
        let _guard = fault::override_spec("1:matcher-candidate=panic@1").unwrap();
        with_quiet_chaos_panics(|| engine.run_in(&request, &mut session))
    };
    match err {
        Err(Error::Engine(EngineError::Internal { task, payload })) => {
            assert_eq!(task, "sequential matcher");
            assert!(payload.contains("chaos"), "payload: {payload}")
        }
        other => panic!("expected a quarantined Internal error, got {other:?}"),
    }
    assert_eq!(
        session.queries_executed(),
        1,
        "the quarantined query was counted"
    );

    // Same session: the next query is served in full.
    let clean = engine.run_in(&request, &mut session).unwrap();
    assert_eq!(clean.status, QueryStatus::Completed);
    assert_eq!(clean.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
    assert_eq!(clean.bindings.len(), PAPER_QUERY_EMBEDDINGS);
}

#[test]
fn delay_chaos_never_changes_answers() {
    let _serial = serial();
    let engine = AmberEngine::from_graph(paper_graph());
    let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
    let request = QueryRequest::parsed(&q);
    let baseline = engine.run(&request).unwrap();
    let _guard = fault::override_spec("11:delay@1").unwrap();
    let delayed = engine.run(&request).unwrap();
    assert_eq!(delayed.status, QueryStatus::Completed);
    assert_eq!(delayed.embedding_count, baseline.embedding_count);
    assert_eq!(delayed.bindings, baseline.bindings);
}

#[test]
fn serving_layer_quarantines_chaos_panics_per_tenant() {
    let _serial = serial();
    let engine = Arc::new(AmberEngine::from_graph(paper_graph()));
    let server = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    // Queue the poisoned request before arming: it runs when redeemed.
    let poisoned = server.submit_sparql("a", &paper_query_text()).unwrap();
    let result = {
        let _guard = fault::override_spec("1:matcher-candidate=panic@1").unwrap();
        with_quiet_chaos_panics(|| poisoned.wait())
    };
    match result {
        Err(Error::Engine(EngineError::Internal { payload, .. })) => {
            assert!(payload.contains("chaos"), "payload: {payload}")
        }
        other => panic!("expected a quarantined Internal error, got {other:?}"),
    }

    // Disarmed: the poisoned tenant AND a fresh tenant are served in full
    // by the same server — the panic poisoned one ticket, not the engine,
    // not the session, not the serving loop.
    let again = server.submit_sparql("a", &paper_query_text()).unwrap();
    let other = server.submit_sparql("b", &paper_query_text()).unwrap();
    assert_eq!(
        again.wait().unwrap().embedding_count,
        PAPER_QUERY_EMBEDDINGS as u128
    );
    assert_eq!(
        other.wait().unwrap().embedding_count,
        PAPER_QUERY_EMBEDDINGS as u128
    );
    let report = server.shutdown();
    assert_eq!(report.served_for("a"), 2, "the failed request counts too");
    assert_eq!(report.served_for("b"), 1);
    assert_eq!(report.rejected, 0);
}

#[test]
fn serving_layer_survives_index_probe_chaos() {
    let _serial = serial();
    let engine = Arc::new(AmberEngine::from_graph(paper_graph()));
    let baseline = paper_baseline(&engine);
    // Panic inside `ProcessVertex`'s index walks (the paper query's
    // attribute set on X5) while a warm tenant repeats a query: every
    // outcome is either correct or a typed error, and the tenant's session
    // keeps serving later requests.
    let server = Server::start(Arc::clone(&engine), ServeConfig::default());
    {
        let _guard = fault::override_spec("3:index-probe=panic@2").unwrap();
        with_quiet_chaos_panics(|| {
            for _ in 0..6 {
                let ticket = server.submit_sparql("a", &paper_query_text()).unwrap();
                match ticket.wait() {
                    Ok(out) => assert_eq!(out.embedding_count, baseline.embedding_count),
                    Err(Error::Engine(EngineError::Internal { .. })) => {}
                    Err(other) => panic!("untyped failure under index-probe chaos: {other}"),
                }
            }
        });
    }
    // Disarmed epilogue on the very same server and tenant session.
    let clean = server.submit_sparql("a", &paper_query_text()).unwrap();
    assert_eq!(
        clean.wait().unwrap().embedding_count,
        baseline.embedding_count
    );
    let report = server.shutdown();
    assert_eq!(report.served_for("a"), 7);
}

#[test]
fn a_panic_while_planning_is_quarantined_on_every_entry_point() {
    let _serial = serial();
    let engine = AmberEngine::from_graph(paper_graph());
    let text = paper_query_text();
    let parsed = amber_sparql::parse_select(&text).unwrap();
    let options = ExecOptions::default();
    let mut session = engine.create_session(&options);
    // `ProcessVertex` probes the index while the plan is built, so every
    // probe panicking fails the query in planning, before any search.
    let (run, prepared, explained) = {
        let _guard = fault::override_spec("1:index-probe=panic@1").unwrap();
        with_quiet_chaos_panics(|| {
            (
                engine.run(&QueryRequest::sparql(&text)),
                engine.prepare_sparql(&text),
                engine.explain_analyze(&parsed, &options, &mut session),
            )
        })
    };
    assert!(
        matches!(run, Err(Error::Engine(EngineError::Internal { .. }))),
        "run: {run:?}"
    );
    for (entry, task) in [
        ("prepare_sparql", prepared.err()),
        ("explain_analyze", explained.err()),
    ] {
        match task {
            Some(EngineError::Internal { task, payload }) => {
                assert_eq!(task, "query planning", "{entry}");
                assert!(payload.contains("chaos"), "{entry}: {payload}");
            }
            other => panic!("{entry}: expected a quarantined Internal error, got {other:?}"),
        }
    }

    // Disarmed, the same engine and session answer in full.
    let plan = engine.prepare_sparql(&text).unwrap();
    let clean = engine.run(&QueryRequest::prepared(&plan)).unwrap();
    assert_eq!(clean.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
    let (outcome, report) = engine
        .explain_analyze(&parsed, &options, &mut session)
        .unwrap();
    assert_eq!(outcome.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
    assert!(!report.is_empty());
}

#[test]
fn alloc_fail_is_inert_everywhere_but_serve_admit() {
    let _serial = serial();
    let engine = AmberEngine::from_graph(paper_graph());
    // Only the serving layer's admission point acts on a spurious
    // alloc-failure signal; at every engine point it is ignored.
    let _guard = fault::override_spec("3:alloc-fail@1").unwrap();
    let outcome = paper_baseline(&engine);
    assert_eq!(outcome.status, QueryStatus::Completed);
    assert_eq!(outcome.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
}
