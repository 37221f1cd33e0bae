//! The signature index `S` is lossless on generated graphs: the table it
//! keeps (eight `u32` fields per vertex, `f3` held as the minimum type id)
//! gives back every vertex's synopsis bit for bit, and the R-tree walk
//! reports exactly what a scan of the table reports — for the data-side
//! synopsis of every vertex and for the query-side synopsis of every
//! vertex of generated queries, whose edge-less directions read `i64::MIN`.

use amber_datagen::{Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_index::SignatureIndex;
use amber_multigraph::{QVertexId, QueryGraph, RdfGraph, Synopsis, VertexId};
use std::collections::HashMap;

fn lossless(benchmark: Benchmark, scale: u32, seed: u64) {
    let rdf = RdfGraph::from_triples(&benchmark.generate(scale, seed));
    let graph = rdf.graph();
    let index = SignatureIndex::build(graph);
    assert_eq!(index.len(), graph.vertex_count());
    // Candidates depend on the synopsis alone: probe each distinct one once.
    let mut probes: HashMap<Synopsis, Vec<VertexId>> = HashMap::new();
    for (v, expected) in graph.vertices().zip(Synopsis::of_data_vertices(graph)) {
        let stored = index.synopsis_of(v);
        assert_eq!(stored, expected, "{benchmark:?} x{scale}: {v}");
        assert_eq!(stored, Synopsis::of_data_vertex(graph, v));
        probes.entry(stored).or_default().push(v);
    }
    for (synopsis, owners) in &probes {
        let candidates = index.candidates(synopsis);
        assert_eq!(
            candidates,
            index.candidates_linear(synopsis),
            "{synopsis:?}"
        );
        for v in owners {
            assert!(candidates.binary_search(v).is_ok(), "{v} pruned by itself");
        }
    }

    let mut generator = WorkloadGenerator::new(&rdf, seed ^ 0x5167);
    let (mut probed, mut unconstrained_directions) = (0, 0);
    for shape in [QueryShape::Star, QueryShape::Complex] {
        for size in [3, 6] {
            for query in generator.generate_many(&WorkloadConfig::new(shape, size), 6) {
                let qg = QueryGraph::build(&query.query, &rdf).expect("generated queries build");
                for u in (0..qg.vertex_count()).map(|u| QVertexId(u as u32)) {
                    let synopsis = qg.query_synopsis(u, &mut Vec::new());
                    unconstrained_directions += [2, 6]
                        .iter()
                        .filter(|&&f| synopsis.0[f] == i64::MIN)
                        .count();
                    assert_eq!(
                        index.candidates(&synopsis),
                        index.candidates_linear(&synopsis),
                        "{}: {u:?}",
                        query.text
                    );
                    probed += 1;
                }
            }
        }
    }
    assert!(probed >= 50, "only {probed} query vertices were probed");
    assert!(
        unconstrained_directions > 0,
        "no query synopsis carried an i64::MIN field"
    );
}

#[test]
fn dbpedia_scale_1_signature_index_is_lossless() {
    lossless(Benchmark::Dbpedia, 1, 11);
}

#[test]
fn dbpedia_scale_2_signature_index_is_lossless() {
    lossless(Benchmark::Dbpedia, 2, 11);
}

#[test]
fn lubm_signature_index_is_lossless() {
    for scale in [1, 2] {
        lossless(Benchmark::Lubm, scale, 11);
    }
}
