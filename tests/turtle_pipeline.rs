//! Turtle ingestion end to end: the same data loaded via Turtle and
//! N-Triples must produce identical engines, and the paper's example works
//! through the Turtle path.

use amber::{AmberEngine, QueryRequest};
use amber_multigraph::paper::{paper_query_text, paper_triples, PREFIX_X, PREFIX_Y};
use rdf_model::write_ntriples;

/// The paper's Fig. 1a data in idiomatic Turtle.
fn paper_turtle() -> String {
    format!(
        r#"
@prefix x: <{PREFIX_X}> .
@prefix y: <{PREFIX_Y}> .

x:London y:isPartOf x:England ;
         y:hasStadium x:WembleyStadium .
x:England y:hasCapital x:London .
x:Christopher_Nolan y:wasBornIn x:London ;
                    y:livedIn x:England ;
                    y:isPartOf x:Dark_Knight_Trilogy .
x:WembleyStadium y:hasCapacityOf "90000" .
x:Amy_Winehouse y:wasBornIn x:London ;
                y:diedIn x:London ;
                y:wasPartOf x:Music_Band ;
                y:livedIn x:United_States ;
                y:wasMarriedTo x:Blake_Fielder-Civil .
x:Music_Band y:hasName "MCA_Band" ;
             y:wasFoundedIn "1994" ;
             y:wasFormedIn x:London .
x:Blake_Fielder-Civil y:livedIn x:United_States .
"#
    )
}

#[test]
fn turtle_and_ntriples_loads_agree() {
    let from_turtle = AmberEngine::load_turtle(&paper_turtle()).expect("turtle parses");
    let from_nt = AmberEngine::load_ntriples(&write_ntriples(&paper_triples())).expect("nt parses");
    assert_eq!(from_turtle.rdf().stats(), from_nt.rdf().stats());

    let a = from_turtle
        .run(&QueryRequest::sparql(&paper_query_text()))
        .unwrap();
    let b = from_nt
        .run(&QueryRequest::sparql(&paper_query_text()))
        .unwrap();
    assert_eq!(a.embedding_count, 2);
    assert_eq!(a.embedding_count, b.embedding_count);
    let mut rows_a = a.bindings.to_vec();
    let mut rows_b = b.bindings.to_vec();
    rows_a.sort();
    rows_b.sort();
    assert_eq!(rows_a, rows_b);
}

#[test]
fn turtle_parse_errors_surface_with_position() {
    let Err(err) = AmberEngine::load_turtle("@prefix broken") else {
        panic!("malformed Turtle loaded");
    };
    assert!(matches!(err, amber::EngineError::Turtle(_)));
    assert!(err.to_string().contains("Turtle parse error"));
}

#[test]
fn snapshot_of_turtle_load_round_trips() {
    let engine = AmberEngine::load_turtle(&paper_turtle()).unwrap();
    let image = engine.rdf().to_snapshot();
    let restored = amber_multigraph::RdfGraph::from_snapshot(&image).unwrap();
    let engine2 = AmberEngine::from_graph(restored);
    let a = engine
        .run(&QueryRequest::sparql(&paper_query_text()).counting())
        .unwrap();
    let b = engine2
        .run(&QueryRequest::sparql(&paper_query_text()).counting())
        .unwrap();
    assert_eq!(a.embedding_count, b.embedding_count);
}
