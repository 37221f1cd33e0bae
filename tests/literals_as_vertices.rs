//! The literals-as-vertices extension mode (DESIGN.md §6): the paper's
//! future-work direction that lifts the "variables bind only resources"
//! restriction by materializing literal objects as graph vertices.

use amber::{AmberEngine, QueryRequest};
use amber_multigraph::{GraphBuilder, GraphConfig};
use rdf_model::parse_ntriples;

const DATA: &str = r#"
<http://x/Amy>   <http://y/hasName> "Amy Winehouse" .
<http://x/Blake> <http://y/hasName> "Blake" .
<http://x/Amy>   <http://y/marriedTo> <http://x/Blake> .
<http://x/Band>  <http://y/hasName> "Amy Winehouse" .
"#;

fn build_engine(literals_as_vertices: bool) -> AmberEngine {
    let triples = parse_ntriples(DATA).unwrap();
    let mut builder = GraphBuilder::with_config(GraphConfig {
        literals_as_vertices,
    });
    builder.add_triples(&triples);
    AmberEngine::from_graph(builder.finish())
}

#[test]
fn paper_mode_cannot_bind_literal_variables() {
    // In the paper's model hasName never becomes an edge type, so a
    // variable object over it is unsatisfiable (empty, not an error).
    let engine = build_engine(false);
    let outcome = engine
        .run(&QueryRequest::sparql(
            "SELECT ?name WHERE { <http://x/Amy> <http://y/hasName> ?name . }",
        ))
        .unwrap();
    assert_eq!(outcome.embedding_count, 0);
}

#[test]
fn extension_mode_binds_literal_variables() {
    let engine = build_engine(true);
    let outcome = engine
        .run(&QueryRequest::sparql(
            "SELECT ?name WHERE { <http://x/Amy> <http://y/hasName> ?name . }",
        ))
        .unwrap();
    assert_eq!(outcome.embedding_count, 1);
    assert_eq!(outcome.bindings[0][0].as_ref(), "\"Amy Winehouse\"");
}

#[test]
fn extension_mode_joins_through_literals() {
    // Who shares a name? (join on a literal-valued vertex)
    let engine = build_engine(true);
    let outcome = engine
        .run(&QueryRequest::sparql(
            "SELECT ?a ?b WHERE { ?a <http://y/hasName> ?n . ?b <http://y/hasName> ?n . }",
        ))
        .unwrap();
    // (Amy,Amy), (Amy,Band), (Band,Amy), (Band,Band), (Blake,Blake) = 5.
    assert_eq!(outcome.embedding_count, 5);
}

#[test]
fn extension_mode_still_answers_constant_literal_queries() {
    let engine = build_engine(true);
    let outcome = engine
        .run(&QueryRequest::sparql(
            "SELECT ?who WHERE { ?who <http://y/hasName> \"Amy Winehouse\" . }",
        ))
        .unwrap();
    assert_eq!(outcome.embedding_count, 2); // Amy and Band

    // And in paper mode the same query works through the attribute index.
    let engine = build_engine(false);
    let outcome = engine
        .run(&QueryRequest::sparql(
            "SELECT ?who WHERE { ?who <http://y/hasName> \"Amy Winehouse\" . }",
        ))
        .unwrap();
    assert_eq!(outcome.embedding_count, 2);
}

#[test]
fn modes_agree_on_resource_only_queries() {
    let q = "SELECT * WHERE { ?a <http://y/marriedTo> ?b . }";
    let with = build_engine(true).run(&QueryRequest::sparql(q)).unwrap();
    let without = build_engine(false).run(&QueryRequest::sparql(q)).unwrap();
    assert_eq!(with.embedding_count, without.embedding_count);
    assert_eq!(with.embedding_count, 1);
}

#[test]
fn literal_and_iri_objects_never_share_a_cache_entry() {
    // `?x <p> "v"` and `?x <p> <v>` are different queries in both modes:
    // one session answers each from its own result entry.
    for literals_as_vertices in [false, true] {
        let engine = build_engine(literals_as_vertices);
        let options = amber::ExecOptions::batch();
        let mut session = engine.create_session(&options);
        let literal = "SELECT ?x WHERE { ?x <http://y/marriedTo> \"http://x/Blake\" . }";
        let iri = "SELECT ?x WHERE { ?x <http://y/marriedTo> <http://x/Blake> . }";
        for _ in 0..2 {
            let run = |text: &str, session: &mut amber::QuerySession| {
                let request = QueryRequest::sparql(text).with_options(options.clone());
                engine.run_in(&request, session).unwrap().embedding_count
            };
            assert_eq!(run(literal, &mut session), 0, "mode {literals_as_vertices}");
            assert_eq!(run(iri, &mut session), 1, "mode {literals_as_vertices}");
        }
        let stats = session.result_stats();
        assert_eq!(stats.misses, 2, "mode {literals_as_vertices}");
        assert_eq!(stats.hits, 2, "mode {literals_as_vertices}");
    }
}

/// RDF 1.1: `"x"^^xsd:string` and `"x"` are one term, whichever spelling
/// the data or the query uses, in both literal modes and by every route
/// into an engine (N-Triples, Turtle, snapshot).
#[test]
fn both_spellings_of_a_simple_literal_are_one_term() {
    const XSD: &str = "http://www.w3.org/2001/XMLSchema#";
    let ntriples = format!(
        "<http://x/a> <http://y/p> \"x\"^^<{XSD}string> .\n<http://x/b> <http://y/p> \"y\" .\n"
    );
    let turtle = format!(
        "@prefix xsd: <{XSD}> .\n<http://x/a> <http://y/p> \"x\"^^xsd:string .\n\
         <http://x/b> <http://y/p> \"y\" .\n"
    );
    for literals_as_vertices in [false, true] {
        let config = GraphConfig {
            literals_as_vertices,
        };
        let mut from_text = GraphBuilder::with_config(config);
        from_text.add_ntriples(&ntriples).unwrap();
        let from_text = from_text.finish();
        let mut from_turtle = GraphBuilder::with_config(config);
        from_turtle.add_triples(&rdf_model::parse_turtle(&turtle).unwrap());
        let from_turtle = from_turtle.finish();
        let image = from_text.to_snapshot();
        assert_eq!(from_turtle.to_snapshot(), image);
        let from_snapshot = amber_multigraph::RdfGraph::from_snapshot(&image).unwrap();
        for (route, rdf) in [
            ("n-triples", from_text),
            ("turtle", from_turtle),
            ("snapshot", from_snapshot),
        ] {
            let engine = AmberEngine::from_graph(rdf);
            for (object, subject) in [
                ("\"x\"".to_string(), "http://x/a"),
                (format!("\"x\"^^<{XSD}string>"), "http://x/a"),
                ("\"y\"".to_string(), "http://x/b"),
                (format!("\"y\"^^<{XSD}string>"), "http://x/b"),
            ] {
                let query = format!("SELECT ?s WHERE {{ ?s <http://y/p> {object} . }}");
                let outcome = engine.run(&QueryRequest::sparql(&query)).unwrap();
                let rows: Vec<&str> = outcome.bindings.iter().map(|r| r[0].as_ref()).collect();
                assert_eq!(
                    rows,
                    [subject],
                    "{route}, literals_as_vertices={literals_as_vertices}: {query}"
                );
            }
        }
    }
}
