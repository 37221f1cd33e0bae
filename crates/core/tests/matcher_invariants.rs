//! Invariants of the decomposition / ordering / matching pipeline over
//! generated workloads — checked structurally, not just by final counts.

use amber::decompose::Decomposition;
use amber::matcher::{ComponentMatch, ComponentMatcher, ComponentPrep, MatchConfig, SearchArenas};
use amber::ordering::order_core_vertices;
use amber_datagen::{Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_index::IndexSet;
use amber_multigraph::{QVertexId, QueryGraph, RdfGraph};
use amber_util::Deadline;

/// Plan one component and search it from its seed set, retaining at most
/// `cap` solutions.
fn search(
    qg: &QueryGraph,
    index: &IndexSet,
    component: &[QVertexId],
    cap: Option<usize>,
) -> (ComponentPrep, ComponentMatch) {
    let prep = ComponentPrep::build(qg, index, component, &mut SearchArenas::new());
    let deadline = Deadline::unlimited();
    let result = ComponentMatcher::new(qg, index, &prep).run(
        prep.initial_candidates(),
        &MatchConfig::new(&deadline, cap),
        &mut SearchArenas::new(),
    );
    (prep, result)
}

fn prepared_queries(shape: QueryShape, size: usize, n: usize) -> (RdfGraph, Vec<QueryGraph>) {
    let rdf = RdfGraph::from_triples(&Benchmark::Lubm.generate(1, 31));
    let queries =
        WorkloadGenerator::new(&rdf, 32).generate_many(&WorkloadConfig::new(shape, size), n);
    let prepared = queries
        .iter()
        .map(|q| QueryGraph::build(&q.query, &rdf).unwrap())
        .collect();
    (rdf, prepared)
}

#[test]
fn decomposition_partitions_each_component() {
    for shape in [QueryShape::Star, QueryShape::Complex] {
        let (_, queries) = prepared_queries(shape, 12, 5);
        for qg in &queries {
            for component in qg.connected_components().iter() {
                let d = Decomposition::of_component(qg, component);
                // Core ∪ satellites = component, disjoint.
                let mut all: Vec<_> = d.core().iter().chain(d.satellites()).copied().collect();
                all.sort_unstable();
                assert_eq!(all, component, "partition mismatch");
                // Satellites have degree exactly 1 and their neighbour is core.
                for &s in d.satellites() {
                    assert_eq!(qg.degree(s), 1);
                    let neighbor = qg.adjacency(s)[0].neighbor;
                    assert!(d.is_core(neighbor), "satellite attached to non-core");
                }
                // Every satellite appears in exactly one satellites_of list.
                let listed: usize = d.core().iter().map(|&c| d.satellites_of(c).len()).sum();
                assert_eq!(listed, d.satellites().len());
            }
        }
    }
}

#[test]
fn ordering_is_a_connected_permutation_of_the_core() {
    for shape in [QueryShape::Star, QueryShape::Complex] {
        let (_, queries) = prepared_queries(shape, 15, 5);
        for qg in &queries {
            for component in qg.connected_components().iter() {
                let d = Decomposition::of_component(qg, component);
                let order = order_core_vertices(qg, &d);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, d.core(), "order must permute the core");
                for i in 1..order.len() {
                    let touches_prefix = qg
                        .adjacency(order[i])
                        .iter()
                        .any(|a| order[..i].contains(&a.neighbor));
                    assert!(touches_prefix, "non-connected expansion at {i}");
                }
            }
        }
    }
}

#[test]
fn solutions_are_valid_homomorphisms() {
    let (rdf, queries) = prepared_queries(QueryShape::Complex, 8, 5);
    let index = IndexSet::build(&rdf);
    let graph = rdf.graph();
    for qg in &queries {
        if qg.is_unsatisfiable() {
            continue;
        }
        for component in qg.connected_components().iter() {
            let (_, result) = search(qg, &index, component, Some(20));
            for solution in &result.solutions {
                // Reconstruct one concrete embedding: cores as pinned,
                // satellites by their first candidate.
                let mut assign = vec![None; qg.vertex_count()];
                for (u, v) in &solution.core {
                    assign[u.index()] = Some(*v);
                }
                for (u, vs) in &solution.satellites {
                    assert!(!vs.is_empty(), "satellite with empty candidate set");
                    assign[u.index()] = Some(vs[0]);
                }
                // Check every query edge within the component.
                for edge in qg.edges() {
                    let (Some(from), Some(to)) =
                        (assign[edge.from.index()], assign[edge.to.index()])
                    else {
                        continue; // other component
                    };
                    assert!(
                        graph.has_multi_edge(from, to, qg.types(edge.types)),
                        "solution violates edge {edge:?}"
                    );
                }
                // And the vertex constraints.
                for &u in component {
                    let v = assign[u.index()].expect("component vertex assigned");
                    let vertex = qg.vertex(u);
                    assert!(graph.has_attributes(v, vertex.attrs));
                    for c in vertex.iri_constraints {
                        let ok = match c.direction {
                            amber_multigraph::Direction::Incoming => {
                                graph.has_multi_edge(c.data_vertex, v, qg.types(c.types))
                            }
                            amber_multigraph::Direction::Outgoing => {
                                graph.has_multi_edge(v, c.data_vertex, qg.types(c.types))
                            }
                        };
                        assert!(ok, "solution violates IRI constraint");
                    }
                }
            }
        }
    }
}

#[test]
fn solution_cap_caps_solutions_not_count() {
    let (rdf, queries) = prepared_queries(QueryShape::Star, 6, 3);
    let index = IndexSet::build(&rdf);
    for qg in &queries {
        if qg.is_unsatisfiable() {
            continue;
        }
        for component in qg.connected_components().iter() {
            let (_, uncapped) = search(qg, &index, component, None);
            let (_, capped) = search(qg, &index, component, Some(1));
            assert_eq!(uncapped.count, capped.count, "cap changed the count");
            assert!(capped.solutions.len() <= 1);
            assert_eq!(
                uncapped.count,
                uncapped
                    .solutions
                    .iter()
                    .map(|s| s.embedding_count())
                    .sum::<u128>(),
                "count must equal the sum over retained solutions when uncapped"
            );
        }
    }
}

#[test]
fn initial_candidates_respect_lemma_1() {
    // Every data vertex that actually participates in some embedding of the
    // initial core vertex must be in the seed candidate set.
    let (rdf, queries) = prepared_queries(QueryShape::Star, 8, 3);
    let index = IndexSet::build(&rdf);
    for qg in &queries {
        if qg.is_unsatisfiable() {
            continue;
        }
        for component in qg.connected_components().iter() {
            let (prep, result) = search(qg, &index, component, None);
            let u_init = prep.core_order()[0];
            for solution in &result.solutions {
                let (_, v) = solution
                    .core
                    .iter()
                    .find(|(u, _)| *u == u_init)
                    .expect("initial vertex in solution");
                assert!(
                    prep.initial_candidates().contains(v),
                    "matched vertex missing from CandInit (Lemma 1 violation)"
                );
            }
        }
    }
}
