//! The benchmark derives its query pools from the loaded graph: the walk
//! pool from `WorkloadGenerator` cycling through stars of 4 and 8 and
//! complex shapes of 4 and 6 triple patterns (`benchmark/src/pool.rs`,
//! `walk_candidates`), the fan-out pool from the per-type count of outgoing
//! edge instances (`fanout_candidates`). Both read the graph's adjacency,
//! so a change to its layout or order could change the benchmark's
//! queries without failing anything else. This file pins both, as FNV-1a
//! hashes, on DBpedia-like data at scale 2, seeds 1-3.

use amber_datagen::{Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::RdfGraph;

/// Walk candidates hashed per seed. The walk draws every query from one
/// seeded generator, so a change to what it reads of the graph shows in
/// its first texts as in its later ones.
const WALK_TEXTS: usize = 512;

/// `(seed, walk-text hash, fan-out count hash)`, taken while the adjacency
/// still held one entry per vertex pair (a neighbour and its multi-edge):
/// the entry per edge instance that replaced it left both unchanged.
const GOLDEN: [(u64, u64, u64); 3] = [
    (1, 0x3ad3_2a64_540f_b8de, 0x8abb_7886_59ad_ab5a),
    (2, 0x077e_9115_c265_e7d7, 0x25b3_89f8_8d27_614f),
    (3, 0x81cf_13ce_6a33_c0b2, 0xaca0_9605_a759_fe32),
];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The first [`WALK_TEXTS`] texts of `walk_candidates(rdf, seed)`.
fn walk_hash(rdf: &RdfGraph, seed: u64) -> u64 {
    const SHAPES: [(QueryShape, usize); 4] = [
        (QueryShape::Star, 4),
        (QueryShape::Star, 8),
        (QueryShape::Complex, 4),
        (QueryShape::Complex, 6),
    ];
    let mut generator = WorkloadGenerator::new(rdf, seed);
    let mut hash = FNV_OFFSET;
    let texts = (0..).filter_map(|i: usize| {
        let (shape, size) = SHAPES[i % SHAPES.len()];
        generator
            .generate(&WorkloadConfig::new(shape, size))
            .map(|q| q.text)
    });
    for text in texts.take(WALK_TEXTS) {
        fnv1a(&mut hash, text.as_bytes());
        fnv1a(&mut hash, b"\n");
    }
    hash
}

/// The per-type outgoing edge counts `fanout_candidates` ranks types by.
fn fanout_hash(rdf: &RdfGraph) -> u64 {
    let graph = rdf.graph();
    let mut counts = vec![0u64; graph.edge_type_count()];
    for v in graph.vertices() {
        for edge in graph.out_edges(v) {
            for t in edge.types.types() {
                counts[t.index()] += 1;
            }
        }
    }
    let mut hash = FNV_OFFSET;
    counts
        .iter()
        .for_each(|count| fnv1a(&mut hash, &count.to_le_bytes()));
    hash
}

#[test]
fn the_benchmark_pools_are_pinned() {
    let measured: Vec<(u64, u64, u64)> = GOLDEN
        .iter()
        .map(|&(seed, _, _)| {
            let text = rdf_model::write_ntriples(&Benchmark::Dbpedia.generate(2, seed));
            let rdf = RdfGraph::parse_ntriples(&text).unwrap();
            (seed, walk_hash(&rdf, seed), fanout_hash(&rdf))
        })
        .collect();
    assert_eq!(measured, GOLDEN, "the benchmark's query pools changed");
}
