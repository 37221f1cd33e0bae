//! End-to-end walkthrough of the paper's running example across the public
//! API of every crate: §2 transformation, §4 index examples, §5 matching.

use amber::{AmberEngine, QueryRequest, QueryStatus};
use amber_index::IndexSet;
use amber_multigraph::paper::{
    paper_graph, paper_query_text, paper_triples, PAPER_QUERY_EMBEDDINGS, PREFIX_X,
};
use amber_multigraph::{Direction, EdgeTypeId, MultiEdge, QueryGraph, VertexId, VertexSignature};
use rdf_model::{parse_ntriples, write_ntriples};

#[test]
fn ntriples_round_trip_of_figure_1a() {
    let triples = paper_triples();
    let doc = write_ntriples(&triples);
    let reparsed = parse_ntriples(&doc).expect("serializer output parses");
    assert_eq!(reparsed, triples);
}

#[test]
fn offline_stage_builds_figure_1c_and_indexes() {
    let rdf = paper_graph();
    assert_eq!(rdf.stats().vertices, 9);
    let index = IndexSet::build(&rdf);

    // §4.1: C^A_{u5} = {v0}.
    assert_eq!(
        index
            .attribute
            .candidates(&[amber_multigraph::AttrId(1), amber_multigraph::AttrId(2)])
            .unwrap(),
        vec![VertexId(0)]
    );

    // §4.2: C^S_{u0} = {v1, v7} for σ_{u0} = {-t5}.
    let u0 = VertexSignature {
        incoming: vec![],
        outgoing: vec![MultiEdge::new(vec![EdgeTypeId(5)])],
    };
    assert_eq!(
        index.signature.candidates(&u0.query_synopsis()),
        vec![VertexId(1), VertexId(7)]
    );

    // §4.3: C^N_{u0} = {v1, v7} via N⁺ of v2 through t5.
    assert_eq!(
        index
            .neighborhood
            .neighbors(VertexId(2), Direction::Incoming, &[EdgeTypeId(5)]),
        vec![VertexId(1), VertexId(7)]
    );
}

#[test]
fn online_stage_reproduces_section_5() {
    let engine = AmberEngine::from_graph(paper_graph());
    let outcome = engine
        .run(&QueryRequest::sparql(&paper_query_text()))
        .expect("paper query executes");

    assert_eq!(outcome.status, QueryStatus::Completed);
    assert_eq!(outcome.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
    assert_eq!(outcome.bindings.len(), PAPER_QUERY_EMBEDDINGS);

    // Every binding respects the homomorphism conditions of Definition 2 —
    // verify directly against the data graph.
    let rdf = engine.rdf();
    let graph = rdf.graph();
    let query = amber_sparql::parse_select(&paper_query_text()).unwrap();
    let qg = QueryGraph::build(&query, rdf).unwrap();
    for row in &outcome.bindings {
        let vertex_of = |name: &str| -> VertexId {
            let pos = outcome
                .variables
                .iter()
                .position(|v| v.as_ref() == name)
                .expect("projected");
            rdf.vertex_by_key(&row[pos]).expect("binding is a vertex")
        };
        for edge in qg.edges() {
            let from = vertex_of(&qg.vertex(edge.from).name);
            let to = vertex_of(&qg.vertex(edge.to).name);
            assert!(
                graph.has_multi_edge(from, to, edge.types.types()),
                "edge {:?} violated by {row:?}",
                edge
            );
        }
        for u in qg.vertex_ids() {
            let v = vertex_of(&qg.vertex(u).name);
            assert!(graph.has_attributes(v, &qg.vertex(u).attrs));
        }
    }

    // Homomorphism: Amy appears as both ?X0 and ?X3 in one embedding.
    let amy = format!("{PREFIX_X}Amy_Winehouse");
    assert!(outcome
        .bindings
        .iter()
        .any(|row| row[0].as_ref() == amy && row[3].as_ref() == amy));
}

#[test]
fn count_only_matches_materialized_count() {
    let engine = AmberEngine::from_graph(paper_graph());
    let full = engine
        .run(&QueryRequest::sparql(&paper_query_text()))
        .unwrap();
    let counted = engine
        .run(&QueryRequest::sparql(&paper_query_text()).counting())
        .unwrap();
    assert_eq!(full.embedding_count, counted.embedding_count);
    assert_eq!(full.bindings.len() as u128, full.embedding_count);
}
