//! One front end for both sources: compiling a query from its text and
//! from its parsed AST gives the same key, fingerprint, header and query
//! multigraph, on star and complex workloads from all three generators.

use amber::AmberEngine;
use amber_datagen::{Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::RdfGraph;
use std::sync::Arc;

#[test]
fn text_and_parsed_sources_compile_alike() {
    for (i, benchmark) in [Benchmark::Lubm, Benchmark::Yago, Benchmark::Dbpedia]
        .into_iter()
        .enumerate()
    {
        let rdf = Arc::new(RdfGraph::from_triples(
            &benchmark.generate(1, 40 + i as u64),
        ));
        let engine = AmberEngine::from_graph(Arc::clone(&rdf));
        let mut generator = WorkloadGenerator::new(&rdf, 7 + i as u64);
        let mut compared = 0;
        for (shape, size) in [(QueryShape::Star, 5), (QueryShape::Complex, 7)] {
            for q in generator.generate_many(&WorkloadConfig::new(shape, size), 4) {
                let from_text = engine.compile(&q.text).unwrap();
                let from_ast = engine.compile_parsed(&q.query).unwrap();
                assert_eq!(from_text.key(), from_ast.key(), "{}", q.text);
                assert_eq!(from_text.fingerprint(), from_ast.fingerprint());
                assert_eq!(from_text.output_variables(), from_ast.output_variables());
                assert_eq!(
                    from_text.query_graph(),
                    from_ast.query_graph(),
                    "{}",
                    q.text
                );
                compared += 1;
            }
        }
        assert!(
            compared >= 4,
            "{}: too few generated queries",
            benchmark.name()
        );
    }
}
