//! Property-based tests for the index structures: each index is checked
//! against a brute-force oracle on randomly generated inputs.

use amber_index::rtree::Entry;
use amber_index::{AttributeIndex, NeighborhoodIndex, RTree, SignatureIndex};
use amber_multigraph::{
    AttrId, Direction, EdgeTypeId, RdfGraph, Synopsis, VertexId, VertexSignature,
};
use proptest::prelude::*;
use rdf_model::{Iri, Literal, Triple};

fn arb_synopsis() -> impl Strategy<Value = Synopsis> {
    prop::array::uniform8(-8i64..8).prop_map(Synopsis)
}

fn arb_entries() -> impl Strategy<Value = Vec<Entry>> {
    prop::collection::vec(arb_synopsis(), 0..300).prop_map(|syns| {
        syns.into_iter()
            .enumerate()
            .map(|(i, synopsis)| Entry {
                synopsis,
                vertex: VertexId(i as u32),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The R-tree's dominance query equals the brute-force filter, for any
    /// point set and any query.
    #[test]
    fn rtree_matches_bruteforce(entries in arb_entries(), query in arb_synopsis()) {
        let tree = RTree::bulk_load(entries.clone());
        prop_assert_eq!(tree.len(), entries.len());
        let mut expected: Vec<VertexId> = entries
            .iter()
            .filter(|e| e.synopsis.dominates(&query))
            .map(|e| e.vertex)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(tree.dominating(&query), expected);
    }

    /// Dominance is a partial order: reflexive and transitive on samples.
    #[test]
    fn dominance_partial_order(a in arb_synopsis(), b in arb_synopsis(), c in arb_synopsis()) {
        prop_assert!(a.dominates(&a));
        if a.dominates(&b) && b.dominates(&c) {
            prop_assert!(a.dominates(&c));
        }
        if a.dominates(&b) && b.dominates(&a) {
            prop_assert_eq!(a, b);
        }
    }
}

/// A random small multigraph expressed as triples.
fn arb_graph_triples() -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec((0u8..12, 0u8..6, 0u8..12), 1..120).prop_map(|edges| {
        edges
            .into_iter()
            .map(|(s, p, o)| {
                Triple::resource(
                    &format!("http://v/{s}"),
                    &format!("http://p/{p}"),
                    &format!("http://v/{o}"),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// OTIL neighbourhood queries equal a direct adjacency filter for every
    /// vertex, direction and type-set size 1–2.
    #[test]
    fn otil_matches_adjacency_filter(triples in arb_graph_triples(), t1 in 0u8..6, t2 in 0u8..6) {
        let rdf = RdfGraph::from_triples(&triples);
        let graph = rdf.graph();
        let n = NeighborhoodIndex::build(graph);
        let lookup = |p: u8| rdf.edge_type_by_iri(&format!("http://p/{p}"));
        let required: Vec<EdgeTypeId> = {
            let mut ts: Vec<EdgeTypeId> = [lookup(t1), lookup(t2)].into_iter().flatten().collect();
            ts.sort_unstable();
            ts.dedup();
            ts
        };
        prop_assume!(!required.is_empty());
        for v in graph.vertices() {
            for dir in [Direction::Incoming, Direction::Outgoing] {
                let mut expected: Vec<VertexId> = graph
                    .edges(v, dir)
                    .iter()
                    .filter(|e| e.types.contains_all(&required))
                    .map(|e| e.neighbor)
                    .collect();
                expected.sort_unstable();
                prop_assert_eq!(n.neighbors(v, dir, &required), expected);
            }
        }
    }

    /// The unconstrained probe (`T' = ∅`, answered from one contiguous run
    /// of the pool: a vertex's lists lie back to back) equals the
    /// adjacency's neighbour set, and its length hint bounds it.
    #[test]
    fn otil_unconstrained_probe_matches_adjacency(triples in arb_graph_triples()) {
        let rdf = RdfGraph::from_triples(&triples);
        let graph = rdf.graph();
        let n = NeighborhoodIndex::build(graph);
        for v in graph.vertices() {
            for dir in [Direction::Incoming, Direction::Outgoing] {
                let expected: Vec<VertexId> = graph.edges(v, dir).iter().map(|e| e.neighbor).collect();
                prop_assert_eq!(n.neighbors(v, dir, &[]), &expected[..]);
                prop_assert!(n.probe_len_hint(v, dir, &[]) >= expected.len());
                prop_assert_eq!(n.has_neighbor(v, dir, &[]), !expected.is_empty());
            }
        }
    }

    /// The type-major view equals the brute-force
    /// `{v | neighbors_with_type(v, d, t) ≠ ∅}` — sorted and duplicate-free —
    /// on graphs with parallel predicates and self-loops, and its lists
    /// add up to the number of trie roots.
    #[test]
    fn type_incidence_lists_match_bruteforce(triples in arb_graph_triples()) {
        let rdf = RdfGraph::from_triples(&triples);
        let graph = rdf.graph();
        let n = NeighborhoodIndex::build(graph);
        let type_count = rdf.dictionaries().edge_types.len() as u32;
        for dir in [Direction::Incoming, Direction::Outgoing] {
            // One id past the dictionary: a type the graph never uses.
            for t in (0..=type_count).map(EdgeTypeId) {
                let expected: Vec<VertexId> = graph
                    .vertices()
                    .filter(|&v| !n.neighbors_with_type(v, dir, t).is_empty())
                    .collect();
                let listed = n.vertices_with_type(dir, t);
                prop_assert!(listed.windows(2).all(|w| w[0] < w[1]), "{dir:?} {t}: {listed:?}");
                prop_assert_eq!(listed, &expected[..]);
                // Same set straight from the adjacency.
                let scanned: Vec<VertexId> = graph
                    .vertices()
                    .filter(|&v| graph.edges(v, dir).iter().any(|e| e.types.contains(t)))
                    .collect();
                prop_assert_eq!(listed, &scanned[..]);
            }
        }
    }

    /// Lemma 1 on real graphs: the signature index never prunes a vertex
    /// whose signature is a superset of the query's (checked by using every
    /// vertex's own signature as the query).
    #[test]
    fn signature_index_is_lossless(triples in arb_graph_triples()) {
        let rdf = RdfGraph::from_triples(&triples);
        let graph = rdf.graph();
        let index = SignatureIndex::build(graph);
        for v in graph.vertices() {
            let q = VertexSignature::of_data_vertex(graph, v).query_synopsis();
            let candidates = index.candidates(&q);
            prop_assert!(
                candidates.contains(&v),
                "vertex {v:?} pruned by its own signature"
            );
            prop_assert_eq!(candidates, index.candidates_linear(&q));
        }
    }
}

/// Random attribute assignments.
fn arb_attr_triples() -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec((0u8..10, 0u8..3, 0u8..4), 1..60).prop_map(|attrs| {
        attrs
            .into_iter()
            .map(|(s, p, val)| {
                Triple::new(
                    Iri::new(format!("http://v/{s}")),
                    Iri::new(format!("http://p/attr{p}")),
                    Literal::plain(format!("val{val}")),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Attribute-index intersections equal per-vertex subset checks.
    #[test]
    fn attribute_index_matches_scan(triples in arb_attr_triples(), picks in prop::collection::vec(0usize..8, 1..3)) {
        let rdf = RdfGraph::from_triples(&triples);
        let graph = rdf.graph();
        let index = AttributeIndex::build(&rdf);
        let total = rdf.dictionaries().attributes.len();
        prop_assume!(total > 0);
        let mut attrs: Vec<AttrId> = picks
            .into_iter()
            .map(|i| AttrId((i % total) as u32))
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        let mut expected: Vec<VertexId> = graph
            .vertices()
            .filter(|&v| graph.has_attributes(v, &attrs))
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(index.candidates(&attrs).unwrap(), expected);
    }
}
