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
    // one session answers each from its own plan and result entry.
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
        let stats = session.plan_stats();
        assert_eq!(stats.plans.misses, 2, "mode {literals_as_vertices}");
        assert_eq!(stats.results.hits, 2, "mode {literals_as_vertices}");
    }
}
