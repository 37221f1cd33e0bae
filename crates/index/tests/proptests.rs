//! Property-based tests for the index structures: each index is checked
//! against a brute-force oracle on randomly generated inputs.

use amber_index::{AttributeIndex, NeighborhoodIndex, RTree, SignatureIndex};
use amber_multigraph::{
    AttrId, Direction, EdgeTypeId, RdfGraph, Synopsis, VertexId, VertexSignature,
};
use proptest::prelude::*;
use rdf_model::{Iri, Literal, Object, Triple};
use std::collections::{BTreeMap, BTreeSet};

fn arb_synopsis() -> impl Strategy<Value = Synopsis> {
    prop::array::uniform8(-8i64..8).prop_map(Synopsis)
}

/// Point sets of 0–300 points, and of sizes on either side of 16ᵏ + 1,
/// where one more point adds a tree level.
fn arb_points() -> impl Strategy<Value = Vec<Synopsis>> {
    prop_oneof![
        prop::collection::vec(arb_synopsis(), 0..300),
        prop::collection::vec(arb_synopsis(), 16..18),
        prop::collection::vec(arb_synopsis(), 256..258),
        prop::collection::vec(arb_synopsis(), 4096..4098),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The R-tree's dominance query equals the brute-force filter, for any
    /// point set and any query.
    #[test]
    fn rtree_matches_bruteforce(points in arb_points(), query in arb_synopsis()) {
        let tree = RTree::bulk_load(points.len(), |v| points[v.index()]);
        prop_assert_eq!(tree.len(), points.len());
        let expected: Vec<VertexId> = (0..points.len())
            .filter(|&i| points[i].dominates(&query))
            .map(VertexId::from_index)
            .collect();
        prop_assert_eq!(tree.dominating(&query, |v| points[v.index()]), expected);
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
                    .multi_edges(v, dir)
                    .filter(|run| required.iter().all(|&t| run.iter().any(|e| e.edge_type() == t)))
                    .map(|run| run[0].neighbor)
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
                let expected: Vec<VertexId> =
                    graph.multi_edges(v, dir).map(|run| run[0].neighbor).collect();
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
                    .filter(|&v| graph.edges(v, dir).iter().any(|e| e.edge_type() == t))
                    .collect();
                prop_assert_eq!(listed, &scanned[..]);
            }
        }
    }

    /// Lemma 1 on real graphs: the signature index never prunes a vertex
    /// whose signature is a superset of the query's (checked by using every
    /// vertex's own signature as the query). The narrowed table gives back
    /// each synopsis bit for bit, and the R-tree walk equals the scan for
    /// the data-side synopsis and for the query-side one, whose empty
    /// directions read `i64::MIN`.
    #[test]
    fn signature_index_is_lossless(triples in arb_graph_triples()) {
        let rdf = RdfGraph::from_triples(&triples);
        let graph = rdf.graph();
        let index = SignatureIndex::build(graph);
        prop_assert_eq!(index.len(), graph.vertex_count());
        for v in graph.vertices() {
            let stored = index.synopsis_of(v);
            prop_assert_eq!(stored, Synopsis::of_data_vertex(graph, v));
            prop_assert_eq!(index.candidates(&stored), index.candidates_linear(&stored));
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

/// A random graph with dense parallel predicates (so most vertex pairs
/// carry multi-type edges), self-loops and attributes.
fn arb_mixed_triples() -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec((0u8..10, 0u8..5, 0u8..10, 0u8..4), 1..150).prop_map(|rows| {
        rows.into_iter()
            .map(|(s, p, o, kind)| match kind {
                0 => Triple::new(
                    Iri::new(format!("http://v/{s}")),
                    Iri::new(format!("http://p/{p}")),
                    Literal::plain(format!("val{}", o % 4)),
                ),
                _ => Triple::resource(
                    &format!("http://v/{s}"),
                    &format!("http://p/{p}"),
                    &format!("http://v/{o}"),
                ),
            })
            .collect()
    })
}

/// The naive reference: per vertex and direction, `neighbour → type set`,
/// and per vertex its attribute set, read straight off the triples.
struct Reference {
    adjacency: [Vec<BTreeMap<VertexId, BTreeSet<EdgeTypeId>>>; 2],
    attributes: Vec<BTreeSet<AttrId>>,
}

impl Reference {
    fn of(rdf: &RdfGraph, triples: &[Triple]) -> Self {
        let n = rdf.graph().vertex_count();
        let mut adjacency: [Vec<BTreeMap<VertexId, BTreeSet<EdgeTypeId>>>; 2] =
            [vec![BTreeMap::new(); n], vec![BTreeMap::new(); n]];
        let mut attributes = vec![BTreeSet::new(); n];
        for triple in triples {
            let s = rdf.vertex_by_key(&triple.subject.dictionary_key()).unwrap();
            let p = triple.predicate.as_str();
            match &triple.object {
                Object::Literal(literal) => {
                    let a = rdf.dictionaries().attribute(p, literal).unwrap();
                    attributes[s.index()].insert(a);
                }
                Object::Iri(o) => {
                    let o = rdf.vertex_by_key(o.as_str()).unwrap();
                    let t = rdf.edge_type_by_iri(p).unwrap();
                    let [incoming, outgoing] = &mut adjacency;
                    outgoing[s.index()].entry(o).or_default().insert(t);
                    incoming[o.index()].entry(s).or_default().insert(t);
                }
                Object::Blank(_) => unreachable!("no blank nodes generated"),
            }
        }
        Self {
            adjacency,
            attributes,
        }
    }

    fn neighbors(&self, v: VertexId, dir: Direction, required: &[EdgeTypeId]) -> Vec<VertexId> {
        let side = usize::from(dir == Direction::Outgoing);
        self.adjacency[side][v.index()]
            .iter()
            .filter(|(_, types)| required.iter().all(|t| types.contains(t)))
            .map(|(&w, _)| w)
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every lookup of the CSR-laid-out graph and indexes equals the naive
    /// reference: adjacency and attribute rows, `neighbors_with_type`,
    /// `vertices_with_type`, `probe` and `has_neighbor` for type sets of
    /// size 0–3, and `AttributeIndex::vertices_with`.
    #[test]
    fn csr_layout_matches_a_naive_reference(triples in arb_mixed_triples()) {
        let rdf = RdfGraph::from_triples(&triples);
        let graph = rdf.graph();
        let reference = Reference::of(&rdf, &triples);
        let n = NeighborhoodIndex::build(graph);
        let type_count = graph.edge_type_count() as u32;
        let mut type_sets: Vec<Vec<EdgeTypeId>> = vec![vec![]];
        for a in 0..=type_count {
            type_sets.push(vec![EdgeTypeId(a)]);
            for b in a + 1..type_count {
                type_sets.push(vec![EdgeTypeId(a), EdgeTypeId(b)]);
                for c in b + 1..type_count {
                    type_sets.push(vec![EdgeTypeId(a), EdgeTypeId(b), EdgeTypeId(c)]);
                }
            }
        }
        let mut spill = Vec::new();
        for dir in [Direction::Incoming, Direction::Outgoing] {
            for v in graph.vertices() {
                let side = usize::from(dir == Direction::Outgoing);
                let rows: Vec<(VertexId, Vec<EdgeTypeId>)> = graph
                    .multi_edges(v, dir)
                    .map(|run| (run[0].neighbor, run.iter().map(|e| e.edge_type()).collect()))
                    .collect();
                let expected: Vec<(VertexId, Vec<EdgeTypeId>)> = reference.adjacency[side]
                    [v.index()]
                    .iter()
                    .map(|(&w, types)| (w, types.iter().copied().collect()))
                    .collect();
                prop_assert_eq!(rows, expected);
                for required in &type_sets {
                    let expected = reference.neighbors(v, dir, required);
                    if let [t] = required[..] {
                        prop_assert_eq!(n.neighbors_with_type(v, dir, t), &expected[..]);
                    }
                    let probed = n.probe(v, dir, required, &mut spill);
                    prop_assert_eq!(probed.as_slice(&spill), &expected[..]);
                    prop_assert_eq!(n.has_neighbor(v, dir, required), !expected.is_empty());
                }
            }
            // One id past the dictionary: a type the graph never uses.
            for t in (0..=type_count).map(EdgeTypeId) {
                let expected: Vec<VertexId> = graph
                    .vertices()
                    .filter(|&v| !reference.neighbors(v, dir, &[t]).is_empty())
                    .collect();
                prop_assert_eq!(n.vertices_with_type(dir, t), &expected[..]);
            }
        }

        let attributes = AttributeIndex::build(&rdf);
        for v in graph.vertices() {
            let expected: Vec<AttrId> = reference.attributes[v.index()].iter().copied().collect();
            prop_assert_eq!(graph.attributes(v), &expected[..]);
        }
        let attribute_count = rdf.dictionaries().attributes.len() as u32;
        for a in (0..=attribute_count).map(AttrId) {
            let expected: Vec<VertexId> = graph
                .vertices()
                .filter(|v| reference.attributes[v.index()].contains(&a))
                .collect();
            prop_assert_eq!(attributes.vertices_with(a), &expected[..]);
        }
    }
}
