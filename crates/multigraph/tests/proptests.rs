//! Property-based tests for the multigraph substrate: builder invariants,
//! snapshot round-trips, signature monotonicity.

use amber_multigraph::{
    AdjEntry, Direction, EdgeTypeId, GraphBuilder, GraphConfig, MultiEdge, RdfGraph,
    VertexSignature,
};
use amber_util::HeapSize;
use proptest::prelude::*;
use rdf_model::{Iri, Literal, Triple};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn arb_triples() -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec((0u8..10, 0u8..5, 0u8..12, any::<bool>()), 0..80).prop_map(|rows| {
        rows.into_iter()
            .map(|(s, p, o, literal)| {
                if literal {
                    Triple::new(
                        Iri::new(format!("http://v/{s}")),
                        Iri::new(format!("http://p/{p}")),
                        Literal::plain(format!("lit{o}")),
                    )
                } else {
                    Triple::resource(
                        &format!("http://v/{s}"),
                        &format!("http://p/{p}"),
                        &format!("http://v/{o}"),
                    )
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// In/out adjacency are exact mirrors for any input.
    #[test]
    fn adjacency_is_symmetric(triples in arb_triples()) {
        let rdf = RdfGraph::from_triples(&triples);
        let g = rdf.graph();
        let mut mirrored = 0usize;
        for v in g.vertices() {
            for e in g.out_edges(v) {
                let back = AdjEntry { neighbor: v, types: e.types };
                prop_assert!(g.in_edges(e.neighbor).binary_search(&back).is_ok());
                mirrored += 1;
            }
        }
        let incoming: usize = g.vertices().map(|v| g.in_edges(v).len()).sum();
        prop_assert_eq!(mirrored, g.edge_instance_count());
        prop_assert_eq!(incoming, g.edge_instance_count());
    }

    /// Graph construction is idempotent under triple duplication.
    #[test]
    fn duplicates_change_nothing_but_triple_count(triples in arb_triples()) {
        let once = RdfGraph::from_triples(&triples);
        let doubled: Vec<Triple> = triples.iter().chain(triples.iter()).cloned().collect();
        let twice = RdfGraph::from_triples(&doubled);
        let (a, b) = (once.stats(), twice.stats());
        prop_assert_eq!(a.vertices, b.vertices);
        prop_assert_eq!(a.edges, b.edges);
        prop_assert_eq!(a.edge_types, b.edge_types);
        prop_assert_eq!(a.attributes, b.attributes);
        prop_assert_eq!(b.triples, 2 * a.triples);
    }

    /// Snapshot round-trip preserves the graph bit-for-bit, both modes.
    #[test]
    fn snapshot_round_trip(triples in arb_triples(), extension in any::<bool>()) {
        let mut builder = GraphBuilder::with_config(GraphConfig {
            literals_as_vertices: extension,
        });
        builder.add_triples(&triples);
        let original = builder.finish();
        let restored = RdfGraph::from_snapshot(&original.to_snapshot()).expect("round trip");
        prop_assert_eq!(original.stats(), restored.stats());
        prop_assert_eq!(original.config(), restored.config());
        let (ga, gb) = (original.graph(), restored.graph());
        for v in ga.vertices() {
            prop_assert_eq!(original.vertex_name(v), restored.vertex_name(v));
            prop_assert_eq!(ga.out_edges(v), gb.out_edges(v));
            prop_assert_eq!(ga.attributes(v), gb.attributes(v));
        }
        // A second encode of the restored graph is byte-identical.
        prop_assert_eq!(original.to_snapshot(), restored.to_snapshot());
    }

    /// Truncated snapshots error instead of panicking, at any cut point.
    #[test]
    fn snapshot_truncation_is_safe(triples in arb_triples(), cut in 0.0f64..1.0) {
        let image = RdfGraph::from_triples(&triples).to_snapshot();
        let len = ((image.len() as f64) * cut) as usize;
        if len < image.len() {
            prop_assert!(RdfGraph::from_snapshot(&image[..len]).is_err());
        }
    }

    /// Data synopses dominate the query synopsis of any sub-signature:
    /// removing multi-edges from a signature can only weaken it (Lemma 1's
    /// monotonicity, the property the matcher relies on).
    #[test]
    fn synopsis_is_monotone_in_the_signature(triples in arb_triples(), keep in any::<u64>()) {
        let rdf = RdfGraph::from_triples(&triples);
        let g = rdf.graph();
        for v in g.vertices() {
            let full = VertexSignature::of_data_vertex(g, v);
            // Pseudo-randomly drop some multi-edges.
            let sub = VertexSignature {
                incoming: full
                    .incoming
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (keep >> (i % 64)) & 1 == 1)
                    .map(|(_, m)| m.clone())
                    .collect(),
                outgoing: full
                    .outgoing
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (keep >> ((i + 17) % 64)) & 1 == 1)
                    .map(|(_, m)| m.clone())
                    .collect(),
            };
            prop_assert!(
                full.synopsis().dominates(&sub.query_synopsis()),
                "sub-signature not dominated for {v:?}"
            );
        }
    }

    /// Degree equals the size of the merged neighbour set, any direction mix.
    #[test]
    fn degree_matches_neighbor_union(triples in arb_triples()) {
        let rdf = RdfGraph::from_triples(&triples);
        let g = rdf.graph();
        for v in g.vertices() {
            let mut names: Vec<_> = g
                .edges(v, Direction::Incoming)
                .iter()
                .chain(g.edges(v, Direction::Outgoing))
                .map(|e| e.neighbor)
                .collect();
            names.sort_unstable();
            names.dedup();
            prop_assert_eq!(g.degree(v), names.len());
        }
    }
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A multi-edge holds one type inline and several in a box; `cmp`, `eq`
    /// and `hash` must be those of `types()` across the two forms (a
    /// derived order would sort every one-type edge first).
    #[test]
    fn multi_edge_order_equality_and_hash_follow_types(
        a in prop::collection::vec(0u32..6, 0..4),
        b in prop::collection::vec(0u32..6, 0..4),
    ) {
        let a = MultiEdge::new(a.into_iter().map(EdgeTypeId).collect());
        let b = MultiEdge::new(b.into_iter().map(EdgeTypeId).collect());
        prop_assert_eq!(a.cmp(&b), a.types().cmp(b.types()));
        prop_assert_eq!(a.partial_cmp(&b), Some(a.types().cmp(b.types())));
        prop_assert_eq!(a == b, a.types() == b.types());
        prop_assert_eq!(hash_of(&a), hash_of(a.types()));
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
        prop_assert_eq!(a.heap_size(), match a.len() {
            1 => 0,
            n => n * std::mem::size_of::<EdgeTypeId>(),
        });
    }
}
