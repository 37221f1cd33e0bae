//! The load path under tier-1: the three ways into an engine — N-Triples
//! text, owned triples, a snapshot — must build the same database, down to
//! the snapshot bytes, and answer alike. The crate-level suites (scanner vs
//! the retained parser, builder vs a reference, dictionary vs a model,
//! hostile snapshot images) sit beside the code they test; this file is the
//! end-to-end cut that `cargo test -q` at the root runs.

use amber::{AmberEngine, EngineError, QueryRequest};
use amber_datagen::{Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::{RdfGraph, Synopsis, VertexSignature};
use rdf_model::{parse_ntriples, write_ntriples};
use std::time::Duration;

fn three_routes_agree(benchmark: Benchmark, seed: u64) {
    let text = write_ntriples(&benchmark.generate(1, seed));
    let from_text = AmberEngine::load_ntriples(&text).expect("generated text parses");
    let from_triples = AmberEngine::from_triples(&parse_ntriples(&text).unwrap());
    let image = from_text.rdf().to_snapshot();
    let from_snapshot = AmberEngine::from_graph(RdfGraph::from_snapshot(&image).unwrap());

    let others = [&from_triples, &from_snapshot];
    for other in others {
        assert_eq!(other.rdf().stats(), from_text.rdf().stats());
        assert_eq!(other.rdf().to_snapshot(), image);
    }
    assert!(from_text.rdf().stats().triples > 1_000);

    // The signature index reads synopses off borrowed adjacency; the
    // cloning route through `VertexSignature` must give the same fields.
    let graph = from_text.rdf().graph();
    for v in graph.vertices() {
        let expected = VertexSignature::of_data_vertex(graph, v).synopsis();
        assert_eq!(Synopsis::of_data_vertex(graph, v), expected);
        assert_eq!(from_text.index().signature.synopsis_of(v), expected);
        assert_eq!(from_snapshot.index().signature.synopsis_of(v), expected);
    }

    let mut generator = WorkloadGenerator::new(from_text.rdf(), seed ^ 0x10ad);
    let mut compared = 0;
    for shape in [QueryShape::Star, QueryShape::Complex] {
        for query in generator.generate_many(&WorkloadConfig::new(shape, 3), 4) {
            let request = QueryRequest::parsed(&query.query)
                .counting()
                .with_timeout(Duration::from_secs(10));
            let expected = from_text.run(&request).expect("query runs");
            if expected.timed_out() {
                continue;
            }
            assert!(expected.embedding_count > 0, "no embedding: {}", query.text);
            for other in others {
                let outcome = other.run(&request).expect("query runs");
                assert_eq!(
                    outcome.embedding_count, expected.embedding_count,
                    "routes disagree on {}",
                    query.text
                );
            }
            compared += 1;
        }
    }
    assert!(compared >= 4, "only {compared} queries were compared");
}

#[test]
fn dbpedia_loads_alike_by_every_route() {
    three_routes_agree(Benchmark::Dbpedia, 7);
}

#[test]
fn lubm_loads_alike_by_every_route() {
    three_routes_agree(Benchmark::Lubm, 7);
}

#[test]
fn a_malformed_line_is_reported_with_its_position() {
    let mut text = write_ntriples(&Benchmark::Lubm.generate(1, 3));
    let lines = text.lines().count();
    text.push_str("# the next line has a literal in subject position\n");
    text.push_str("  \"é\" <http://y/p> <http://x/o> .\n");
    let Err(EngineError::NtParse(error)) = AmberEngine::load_ntriples(&text) else {
        panic!("the malformed line was accepted");
    };
    assert_eq!((error.line, error.column), (lines + 2, 3));
    assert!(error.message.contains("subject"), "{}", error.message);
}
