//! Property test for the [`SeedCache`] `C^I` probe store's keying under
//! adversarial type-sets.
//!
//! The store keys IRI-constraint probe results by `(data vertex,
//! direction, sorted type-set)`. The dangerous failure mode is *aliasing*: a probe for one
//! type-set answered from the entry of another. The adversarial inputs here
//! are exactly the shapes that break naive keys — permutations of one set
//! (must share an entry, since `QueryNeighIndex` is order-insensitive),
//! subsets/supersets and shared prefixes (must never share), the same set
//! probed through both directions and from different vertices, all
//! interleaved under capacities small enough to force constant eviction.
//!
//! The oracle is the index itself: every probe through the cache must equal
//! a direct `NeighborhoodIndex::neighbors` call, no matter the history.

use amber::SeedCache;
use amber_index::NeighborhoodIndex;
use amber_multigraph::{Direction, EdgeTypeId, RdfGraph, VertexId};
use proptest::prelude::*;

const PREDICATES: u32 = 5;
const VERTICES: u64 = 12;

/// A dense random multigraph over few vertices and predicates, so vertex
/// pairs carry parallel edge types and multi-type probes are non-trivial.
fn dense_graph(seed: u64, triples: usize) -> RdfGraph {
    let mut state = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut doc = String::new();
    for _ in 0..triples {
        let s = next() % VERTICES;
        let p = next() % PREDICATES as u64;
        let o = next() % VERTICES;
        doc.push_str(&format!(
            "<http://c/v{s}> <http://c/p{p}> <http://c/v{o}> .\n"
        ));
    }
    RdfGraph::parse_ntriples(&doc).expect("generated n-triples parse")
}

/// One probe request: vertex index, direction flag, and a type-set given as
/// an arbitrary (possibly duplicated, unsorted) list of predicate indexes.
type ProbeSpec = (u64, bool, Vec<u32>);

fn probe_strategy() -> impl Strategy<Value = Vec<ProbeSpec>> {
    prop::collection::vec(
        (
            0u64..VERTICES,
            any::<bool>(),
            prop::collection::vec(0u32..PREDICATES, 0..4),
        ),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_probes_always_equal_direct_probes(
        graph_seed in 0u64..64,
        triples in 60usize..220,
        capacity in prop_oneof![Just(1usize), Just(2), Just(5), Just(4096)],
        probes in probe_strategy(),
    ) {
        let rdf = dense_graph(graph_seed, triples);
        let n = NeighborhoodIndex::build(rdf.graph());
        let mut cache = SeedCache::new(capacity);

        for (v, incoming, raw_types) in &probes {
            let v = VertexId((*v % VERTICES) as u32);
            let direction = if *incoming {
                Direction::Incoming
            } else {
                Direction::Outgoing
            };
            let types: Vec<EdgeTypeId> = raw_types.iter().map(|&t| EdgeTypeId(t)).collect();

            // Probe the set as given, then adversarial derivatives sharing
            // its prefix: reversed (permutation — may only hit the same
            // entry because the result is identical), a strict prefix
            // subset, and an extended superset.
            let mut variants: Vec<Vec<EdgeTypeId>> = vec![types.clone()];
            let mut reversed = types.clone();
            reversed.reverse();
            variants.push(reversed);
            if types.len() > 1 {
                variants.push(types[..types.len() - 1].to_vec());
            }
            let mut extended = types.clone();
            extended.push(EdgeTypeId(types.len() as u32 % PREDICATES));
            variants.push(extended);

            for required in variants {
                let got = cache.iri_neighbors(&n, v, direction, &required).to_vec();
                let expected = n.neighbors(v, direction, &required);
                prop_assert_eq!(
                    got,
                    expected,
                    "aliased probe for v={:?} {:?} {:?} (capacity {})",
                    v,
                    direction,
                    &required,
                    capacity
                );
            }

            let stats = cache.stats();
            prop_assert!(
                stats.entries <= capacity,
                "cache overflowed: {} entries > capacity {}",
                stats.entries,
                capacity
            );
        }
    }
}
