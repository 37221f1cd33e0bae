//! Chaos differential tests: under any injected fault — panics, scheduling
//! delays, spurious allocation failures — a query must return either the
//! bit-identical clean answer or a clean typed error/partial status. Never
//! a wrong answer, never a hang, never a poisoned engine.
//!
//! Chaos arming is process-global (`amber_util::fault`), so every test in
//! this binary serializes on [`SERIAL`]; unarmed suites live in their own
//! binaries (separate processes) and never observe an armed window.

use amber::{AmberEngine, EngineError, ExecOptions, QueryStatus};
use amber_multigraph::paper::{paper_graph, paper_query_text, PAPER_QUERY_EMBEDDINGS};
use amber_serve::{ServeConfig, ServeError, Server};
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

/// Engine-side fault points, exercised through `execute_in_session`.
const POINTS: [&str; 4] = [
    "matcher-candidate",
    "cache-insert",
    "cache-evict",
    "index-probe",
];
/// Serving-loop fault points, exercised through a [`Server`] (the engine
/// proptest never reaches them; they get their own differential below).
const SERVE_POINTS: [&str; 3] = ["serve-admit", "serve-dispatch", "serve-drain"];
const KINDS: [&str; 3] = ["panic", "delay", "alloc-fail"];
const RATES: [u64; 3] = [1, 7, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: any fault spec — the outcome is the clean
    /// answer, a clean partial, or a typed quarantined error. Afterwards
    /// the same session serves the query correctly.
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
        let options = base
            // A generous budget arms the governor without organic pressure:
            // only an injected alloc-fail can exhaust it.
            .with_memory_budget(1 << 30);

        let baseline = engine.execute_parsed(&q, &options).unwrap();
        prop_assert_eq!(baseline.status, QueryStatus::Completed);
        prop_assert_eq!(baseline.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);

        let mut session = engine.create_session(&options);
        let spec = format!("{seed}:{point}={kind}@{rate}");
        let chaotic = {
            let _guard = fault::override_spec(&spec).expect("spec parses");
            with_quiet_chaos_panics(|| engine.execute_in_session(&q, &options, &mut session))
        };
        match chaotic {
            Ok(out) => match out.status {
                QueryStatus::Completed => {
                    prop_assert_eq!(out.embedding_count, baseline.embedding_count,
                        "wrong answer under {}", &spec);
                    prop_assert_eq!(&out.bindings, &baseline.bindings,
                        "wrong bindings under {}", &spec);
                }
                QueryStatus::BudgetExceeded => {
                    prop_assert_eq!(kind, "alloc-fail",
                        "only alloc-fail may exhaust a 1 GiB budget ({})", &spec);
                    prop_assert!(out.bindings.is_empty(), "partials carry no bindings");
                }
                other => prop_assert!(false,
                    "unexpected status {:?} under {} (no deadline, no token)", other, &spec),
            },
            Err(EngineError::Internal { task, payload }) => {
                prop_assert_eq!(kind, "panic",
                    "only panic faults may surface as Internal ({}: {} / {})",
                    &spec, task, payload);
            }
            Err(other) => prop_assert!(false, "untyped failure under {}: {}", &spec, other),
        }

        // Disarmed epilogue: the session must be reusable and correct — a quarantined panic poisons only its own query.
        let clean = engine.execute_in_session(&q, &options, &mut session).unwrap();
        prop_assert_eq!(clean.status, QueryStatus::Completed);
        prop_assert_eq!(clean.embedding_count, baseline.embedding_count);
        prop_assert_eq!(&clean.bindings, &baseline.bindings);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The serving-loop differential: any fault kind at any serve point —
    /// every submission either returns the bit-identical clean answer, a
    /// typed partial, or a typed rejection/error; the server always
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
        let baseline = engine
            .execute(&paper_query_text(), &ExecOptions::default())
            .unwrap();
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
                                QueryStatus::BudgetExceeded => assert_eq!(
                                    kind, "alloc-fail",
                                    "only spurious exhaustion degrades ({spec})"
                                ),
                                other => panic!("unexpected status {other:?} under {spec}"),
                            },
                            Err(ServeError::Engine(EngineError::Internal { .. })) => {
                                assert_eq!(kind, "panic", "typed Internal needs a panic ({spec})")
                            }
                            Err(other) => panic!("untyped ticket failure under {spec}: {other}"),
                        },
                        Err(ServeError::Engine(EngineError::Internal { task, .. })) => {
                            assert_eq!(kind, "panic", "{spec}");
                            assert_eq!(point, "serve-admit", "{spec}: failed in {task}");
                        }
                        Err(ServeError::Overloaded { queued, .. }) => {
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
            Err(ServeError::Overloaded {
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
    let report = {
        let _guard = fault::override_spec("9:serve-drain=panic@1").unwrap();
        with_quiet_chaos_panics(|| server.shutdown())
    };
    assert_eq!(report.served_for("a"), 2, "the drain still completed");
    assert_eq!(
        report.drain_faults, 2,
        "each worker's drain-exit panic is trapped and counted"
    );
}

#[test]
fn serve_dispatch_panics_trip_the_tenant_breaker() {
    let _serial = serial();
    let engine = Arc::new(AmberEngine::from_graph(paper_graph()));
    let baseline = engine
        .execute(&paper_query_text(), &ExecOptions::default())
        .unwrap();
    let server = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 1,
            breaker: Some(amber_serve::BreakerConfig {
                failure_threshold: 2,
                cooldown: std::time::Duration::from_secs(3600),
            }),
            ..ServeConfig::default()
        },
    );
    {
        let _guard = fault::override_spec("1:serve-dispatch=panic@1").unwrap();
        with_quiet_chaos_panics(|| {
            for _ in 0..2 {
                let t = server.submit_sparql("noisy", &paper_query_text()).unwrap();
                assert!(matches!(
                    t.wait(),
                    Err(ServeError::Engine(EngineError::Internal { .. }))
                ));
            }
        });
    }
    // Disarmed: the breaker is open with the Internal cause; healthy
    // tenants still complete bit-identically.
    match server.submit_sparql("noisy", &paper_query_text()) {
        Err(ServeError::CircuitOpen { cause, .. }) => {
            assert_eq!(cause, amber_serve::TripCause::Internal)
        }
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
    let quiet = server.submit_sparql("quiet", &paper_query_text()).unwrap();
    let outcome = quiet.wait().unwrap();
    assert_eq!(outcome.embedding_count, baseline.embedding_count);
    assert_eq!(outcome.bindings, baseline.bindings);
    let report = server.shutdown();
    assert_eq!(report.breaker_trips, 1);
    assert!(report.breaker_fast_fails >= 1);
}

#[test]
fn serve_dispatch_panic_on_the_inline_path_leaves_tenant_and_caller_serving() {
    let _serial = serial();
    let engine = Arc::new(AmberEngine::from_graph(paper_graph()));
    let baseline = engine
        .execute(&paper_query_text(), &ExecOptions::default())
        .unwrap();
    let server = Server::start(Arc::clone(&engine), ServeConfig::default());
    let opts = amber_serve::SubmitOptions::new;
    // `execute` on an idle server runs the dispatch — and so the fault
    // point — on this thread: the panic must come back as a value.
    let err = {
        let _guard = fault::override_spec("1:serve-dispatch=panic@1").unwrap();
        with_quiet_chaos_panics(|| server.execute("noisy", &paper_query_text(), opts()))
    };
    match err {
        Err(ServeError::Engine(EngineError::Internal { task, .. })) => {
            assert_eq!(task, "serve dispatch")
        }
        other => panic!("expected a typed Internal error, got {other:?}"),
    }
    assert_eq!(server.inflight(), 0, "the execution slot was released");
    // Disarmed: the same thread asks again for the same tenant. A tenant
    // left busy (or a slot left claimed) would queue this request; it
    // runs inline and answers exactly.
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
    let options = ExecOptions::default();
    let mut session = engine.create_session(&options);

    let err = {
        let _guard = fault::override_spec("1:matcher-candidate=panic@1").unwrap();
        with_quiet_chaos_panics(|| engine.execute_in_session(&q, &options, &mut session))
    };
    match err {
        Err(EngineError::Internal { task, payload }) => {
            assert_eq!(task, "sequential matcher");
            assert!(payload.contains("chaos"), "payload: {payload}")
        }
        other => panic!("expected a quarantined Internal error, got {other:?}"),
    }
    assert_eq!(
        session.search_stats().trapped_panics,
        1,
        "the quarantine must be visible in SearchStats: {:?}",
        session.search_stats()
    );

    // Same session: the next query is served in full.
    let clean = engine
        .execute_in_session(&q, &options, &mut session)
        .unwrap();
    assert_eq!(clean.status, QueryStatus::Completed);
    assert_eq!(clean.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
    assert_eq!(clean.bindings.len(), PAPER_QUERY_EMBEDDINGS);
}

#[test]
fn delay_chaos_never_changes_answers() {
    let _serial = serial();
    let engine = AmberEngine::from_graph(paper_graph());
    let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
    let options = ExecOptions::default();
    let baseline = engine.execute_parsed(&q, &options).unwrap();
    let _guard = fault::override_spec("11:delay@1").unwrap();
    let delayed = engine.execute_parsed(&q, &options).unwrap();
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
            paused: true, // queue the poisoned request before arming
            ..ServeConfig::default()
        },
    );
    let poisoned = server.submit_sparql("a", &paper_query_text()).unwrap();
    let result = {
        let _guard = fault::override_spec("1:matcher-candidate=panic@1").unwrap();
        with_quiet_chaos_panics(|| {
            server.resume();
            poisoned.wait()
        })
    };
    match result {
        Err(ServeError::Engine(EngineError::Internal { payload, .. })) => {
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
fn serving_layer_survives_cache_chaos() {
    let _serial = serial();
    let engine = Arc::new(AmberEngine::from_graph(paper_graph()));
    let baseline = engine
        .execute(&paper_query_text(), &ExecOptions::default())
        .unwrap();
    // Panic inside the seed cache's insert/evict paths while a warm tenant
    // repeats a query: every outcome is either correct or a typed error,
    // and the tenant's session keeps serving later requests.
    let server = Server::start(Arc::clone(&engine), ServeConfig::default());
    {
        let _guard = fault::override_spec("3:cache-insert=panic@2").unwrap();
        with_quiet_chaos_panics(|| {
            for _ in 0..6 {
                let ticket = server.submit_sparql("a", &paper_query_text()).unwrap();
                match ticket.wait() {
                    Ok(out) => assert_eq!(out.embedding_count, baseline.embedding_count),
                    Err(ServeError::Engine(EngineError::Internal { .. })) => {}
                    Err(other) => panic!("untyped failure under cache chaos: {other}"),
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
fn alloc_fail_without_a_governor_is_inert() {
    let _serial = serial();
    let engine = AmberEngine::from_graph(paper_graph());
    // No memory budget → no governor → the spurious alloc-failure signal
    // has nowhere to land and must be ignored, not crash.
    let options = ExecOptions::default();
    let _guard = fault::override_spec("3:alloc-fail@1").unwrap();
    let outcome = engine.execute(&paper_query_text(), &options).unwrap();
    assert_eq!(outcome.status, QueryStatus::Completed);
    assert_eq!(outcome.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
}

#[test]
fn alloc_fail_with_a_governor_degrades_cleanly() {
    let _serial = serial();
    let engine = AmberEngine::from_graph(paper_graph());
    let options = ExecOptions::default().with_memory_budget(1 << 30);
    let mut session = engine.create_session(&options);
    let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
    let outcome = {
        let _guard = fault::override_spec("3:matcher-candidate=alloc-fail@1").unwrap();
        engine
            .execute_in_session(&q, &options, &mut session)
            .unwrap()
    };
    assert_eq!(outcome.status, QueryStatus::BudgetExceeded);
    assert!(
        session.search_stats().degradation_steps >= 1,
        "exhaustion takes the whole ladder: {:?}",
        session.search_stats()
    );
}
