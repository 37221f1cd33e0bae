//! Failure injection and adversarial inputs: malformed documents, hostile
//! query shapes, zero budgets, empty graphs, unicode — the "production
//! quality" envelope around the paper's algorithm.

use amber::{AmberEngine, EngineError, Error, ExecOptions, QueryRequest, QueryStatus};
use amber_baselines::all_engines;
use amber_multigraph::paper::{paper_graph, paper_query_text, PAPER_QUERY_EMBEDDINGS};
use amber_multigraph::{GraphBuilder, GraphConfig, RdfGraph};
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
fn a_timeout_past_the_clock_range_never_fires() {
    // `Duration::MAX` cannot be added to an `Instant`: such a limit never
    // expires, so the query answers exactly as an untimed run does.
    let query = paper_query_text();
    let engine = AmberEngine::from_graph(paper_graph());
    let untimed = engine.run(&QueryRequest::sparql(&query)).unwrap();
    for limit in [Duration::MAX, Duration::from_secs(u64::MAX)] {
        let timed = engine
            .run(&QueryRequest::sparql(&query).with_timeout(limit))
            .expect("no panic to trap");
        assert_eq!(timed.status, QueryStatus::Completed);
        assert_eq!(timed.bindings, untimed.bindings);
    }
    for engine in all_engines(Arc::new(paper_graph())) {
        let outcome = engine
            .execute_sparql(&query, &ExecOptions::default().with_timeout(Duration::MAX))
            .expect("executes");
        assert!(!outcome.timed_out(), "{}", engine.name());
        assert_eq!(
            outcome.embedding_count,
            PAPER_QUERY_EMBEDDINGS as u128,
            "{}",
            engine.name()
        );
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

/// A query names a constant by the text the data spells it with: the
/// SPARQL scanner lexes IRIs and strings by the grammar the N-Triples
/// reader does, so an escape decodes alike in both, and a term that
/// grammar refuses is a positioned syntax error, never a silent 0 rows.
#[test]
fn query_constants_read_as_the_data_reads_them() {
    let engine = AmberEngine::load_ntriples(
        "<http://x/s> <http://x/p> <http://x/\\u0041> .\n<http://x/s> <http://x/q> \"A\" .\n",
    )
    .unwrap();
    for query in [
        "SELECT ?s WHERE { ?s <http://x/p> <http://x/A> }",
        "SELECT ?s WHERE { ?s <http://x/p> <http://x/\\u0041> }",
        "SELECT ?s WHERE { ?s <http://x/q> \"A\" }",
        "SELECT ?s WHERE { ?s <http://x/q> \"\\u0041\" }",
        "SELECT ?s WHERE { ?s <http://x/\\U00000071> 'A' }",
    ] {
        let outcome = engine.run(&QueryRequest::sparql(query)).unwrap();
        assert_eq!(
            outcome.bindings.to_vec(),
            vec![vec!["http://x/s".into()]],
            "{query}"
        );
    }
    // Each refusal is reported just past the offending text.
    for (query, at, message) in [
        (
            "SELECT ?s WHERE { ?s <http://x/p> <http://x/a{b> }",
            "a{",
            "character '{' not allowed in IRI",
        ),
        (
            "SELECT ?s WHERE { ?s <http://x/p> <http://x/a\"b> }",
            "a\"",
            "character '\"' not allowed in IRI",
        ),
        (
            "SELECT ?s WHERE { ?s <http://x/q> \"5\"^^<http://t x> }",
            "t ",
            "character ' ' not allowed in IRI",
        ),
        ("SELECT ?s WHERE { ?s <http://x/p> <> }", "<>", "empty IRI"),
        (
            "SELECT ?s WHERE { ?s <http://x/p> <http://x/\\u0020> }",
            "\\u0020",
            "character ' ' not allowed in IRI",
        ),
    ] {
        match engine.run(&QueryRequest::sparql(query)) {
            Err(Error::Engine(EngineError::Sparql(err))) => {
                let column = query.find(at).unwrap() + at.len() + 1;
                assert_eq!(err.kind, amber_sparql::SparqlErrorKind::Syntax, "{query}");
                assert_eq!((err.line, err.column), (1, column), "{query}");
                assert_eq!(err.message, message, "{query}");
            }
            other => panic!("{query}: expected a syntax error, got {other:?}"),
        }
    }
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

/// Expand a compact pattern list (`;`-separated `s p o` rows) into
/// N-Triples or SPARQL: `?v` stays a variable, `"…"` a literal and `_:b`
/// a blank node, other subjects and objects become `<http://x/…>` and
/// predicates `<http://p/…>`.
fn expand(rows: &str) -> String {
    let term = |t: &str, prefix: &str| match t.chars().next() {
        Some('?' | '"' | '_') => t.to_string(),
        _ => format!("<{prefix}{t}>"),
    };
    rows.split(';')
        .map(|row| match row.split_whitespace().collect::<Vec<_>>()[..] {
            [s, p, o] => format!(
                "{} {} {} .\n",
                term(s, "http://x/"),
                term(p, "http://p/"),
                term(o, "http://x/")
            ),
            _ => panic!("not a triple: {row:?}"),
        })
        .collect()
}

#[test]
fn self_loop_queries_agree() {
    // (case, data, query, embeddings counted by hand). The baselines read
    // the adjacency and AMbER reads only its indexes, so a row on which
    // they agree with the hand count pins both.
    let loops = "a p a; a q a; b p b; c q c; a p b; b q a";
    let ground = "a p b; a q b; a p c; a r d; a name \"n1\"; b name \"n2\"";
    let duplicates = "a p b; a p b; a p a; a p a; b p c";
    let shared = "a name \"v\"; a label \"v\"; b name \"v\"; b label \"w\"";
    let mixed = "a p b; a p \"v\"; c p \"v\"; c p a; b q \"v\"";
    let blanks = "_:b1 p _:b2; _:b2 p a; _:b1 name \"n\"; a name \"m\"";
    let cases = [
        (
            "a self-loop and an edge",
            "a likes a; a likes b; b likes a",
            "?x likes ?x; ?x likes ?y",
            2, // ?x = a (self loop), ?y ∈ {a, b}
        ),
        ("a self-loop with two types", loops, "?x p ?x; ?x q ?x", 1),
        (
            "a self-loop on a satellite",
            "a r b; a r c; b p b; d r c; d r b",
            "?x r ?y; ?x r ?z; ?y p ?y",
            4, // ?y = b under ?x ∈ {a, d}, ?z ∈ {b, c}
        ),
        ("a ground edge that holds", ground, "a p b; ?x q ?y", 1),
        ("a ground edge read backwards", ground, "b p a; ?x q ?y", 0),
        (
            "ground parallel types that hold",
            ground,
            "a p b; a q b; ?x p ?y",
            2,
        ),
        (
            "ground parallel types, one missing",
            ground,
            "a p c; a q c; ?x p ?y",
            0,
        ),
        (
            "a ground attribute that holds",
            ground,
            "a name \"n1\"; ?x p ?y",
            2,
        ),
        (
            "a ground attribute another vertex carries",
            ground,
            "b name \"n1\"; ?x p ?y",
            0,
        ),
        ("duplicate triples", duplicates, "?x p ?y", 3),
        ("a duplicated self-loop", duplicates, "?x p ?x", 1),
        (
            "a ground edge stated twice",
            duplicates,
            "a p b; ?x p ?x",
            1,
        ),
        (
            "one literal under two predicates",
            shared,
            "?x name \"v\"",
            2,
        ), // a, b
        (
            "one literal, the other predicate",
            shared,
            "?x label \"v\"",
            1,
        ), // a
        (
            "one literal under both predicates",
            shared,
            "?x name \"v\"; ?x label \"v\"",
            1, // ?x = a
        ),
        (
            "a literal only the other predicate has",
            shared,
            "?x name \"w\"",
            0,
        ),
        ("a predicate's edges", mixed, "?x p ?y", 2), // a→b, c→a
        ("the same predicate's literals", mixed, "?x p \"v\"", 2), // a, c
        (
            "a predicate as edge and attribute at once",
            mixed,
            "?x p \"v\"; ?x p ?y",
            2, // ?x = a with ?y = b, ?x = c with ?y = a
        ),
        ("blank nodes on both ends", blanks, "?x p ?y; ?y p ?z", 1), // _:b1 _:b2 a
        (
            "a blank node's attribute",
            blanks,
            "?x name \"n\"; ?x p ?y",
            1,
        ), // _:b1 _:b2
        ("a blank object reached by an IRI", blanks, "?x p a", 1),   // _:b2
    ];
    for (case, data, query, expected) in cases {
        let rdf = Arc::new(RdfGraph::parse_ntriples(&expand(data)).unwrap());
        assert_all_engines_count(case, rdf, query, expected);
    }
    // With literals as vertices a literal object is a vertex, and an edge
    // reaches it like any other.
    let literal_vertices = "a name \"v\"; b name \"v\"; b label \"v\"; a p b";
    for (case, query, expected) in [
        ("a literal vertex as a constant", "?x name \"v\"", 2), // a, b
        ("a literal vertex as a variable", "?x name ?o", 2),
        (
            "two subjects share a literal vertex",
            "?x name ?o; ?y name ?o",
            4,
        ),
        (
            "a literal under a second predicate",
            "?x name ?o; ?x label ?o",
            1,
        ), // b
        (
            "an edge next to a literal vertex",
            "?x p ?y; ?y label \"v\"",
            1,
        ), // a b
    ] {
        let mut builder = GraphBuilder::with_config(GraphConfig {
            literals_as_vertices: true,
        });
        builder.add_ntriples(&expand(literal_vertices)).unwrap();
        assert_all_engines_count(case, Arc::new(builder.finish()), query, expected);
    }
}

/// Run `query` (in [`expand`]'s notation) on every engine and hold each to
/// the hand count.
fn assert_all_engines_count(case: &str, rdf: Arc<RdfGraph>, query: &str, expected: u128) {
    let query = format!("SELECT * WHERE {{ {} }}", expand(query));
    for engine in all_engines(rdf) {
        let out = engine
            .execute_sparql(&query, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("{case}: {} failed: {e}", engine.name()));
        assert_eq!(out.embedding_count, expected, "{case}: {}", engine.name());
    }
}
