//! The load path under tier-1: the three ways into an engine — N-Triples
//! text, owned triples, a snapshot — must build the same database, down to
//! the snapshot bytes, and answer alike. The crate-level suites (scanner vs
//! the retained parser, builder vs a reference, dictionary vs a model,
//! hostile snapshot images) sit beside the code they test; this file is the
//! end-to-end cut that `cargo test -q` at the root runs.

// The builder's reference: the transformation as first written, with its
// own image writer.
#[path = "../crates/multigraph/src/reference.rs"]
mod reference;

use amber::{AmberEngine, EngineError, QueryRequest};
use amber_datagen::{Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::{
    AdjEntry, AttrId, Direction, EdgeTypeId, RdfGraph, Synopsis, VertexSignature,
};
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

/// The heap bytes of one dictionary holding keys of `key_bytes` bytes in
/// all, `len` of them: its key text, one `u32` end per key, and one `u32`
/// slot per slot of the smallest power-of-two table (at least 8) that
/// keeps load ≤ ½.
fn dictionary_bytes(key_bytes: usize, len: usize) -> usize {
    let slots = match len {
        0 => 0,
        _ => (2 * len).next_power_of_two().max(8),
    };
    key_bytes + 4 * len + 4 * slots
}

/// The heap bytes each part must occupy when every pool holds exactly its
/// items: `rows + 1` `u32` offsets plus the items for a CSR part, and no
/// growth slack anywhere. Computed from the graph's contents alone.
fn exact_part_bytes(rdf: &RdfGraph) -> [(&'static str, usize); 6] {
    const U32: usize = 4;
    let graph = rdf.graph();
    let n = graph.vertex_count();
    let offsets = |rows: usize| (rows + 1) * U32;
    // `Mv` and `Me` store their keys' text. `Ma` stores each pair as its
    // predicate's id (one `char`, numbered in first-seen order over the
    // attribute ids) and the literal's N-Triples form, and each distinct
    // predicate's text once, in a dictionary of its own.
    let dicts = rdf.dictionaries();
    let vertex_keys: usize = graph.vertices().map(|v| rdf.vertex_name(v).len()).sum();
    let edge_types = graph.edge_type_count();
    let edge_type_keys: usize = (0..edge_types as u32)
        .map(|t| rdf.edge_type_name(EdgeTypeId(t)).len())
        .sum();
    let mut predicates = std::collections::HashMap::new();
    let mut attribute_keys = 0;
    for a in 0..dicts.attributes.len() as u32 {
        let (predicate, literal) = dicts.resolve_attribute(AttrId(a)).unwrap();
        let next = predicates.len() as u32;
        let id = *predicates.entry(predicate).or_insert(next);
        assert!(id < 0xD800, "ids this high step over the surrogate gap");
        attribute_keys += char::from_u32(id).unwrap().len_utf8() + literal.len();
    }
    let predicate_keys: usize = predicates.keys().map(|p| p.len()).sum();
    let dictionaries = dictionary_bytes(vertex_keys, n)
        + dictionary_bytes(edge_type_keys, edge_types)
        + dictionary_bytes(attribute_keys, dicts.attributes.len())
        + dictionary_bytes(predicate_keys, predicates.len());
    // One entry per edge instance, once per direction.
    let adjacency =
        2 * (offsets(n) + graph.edge_instance_count() * std::mem::size_of::<AdjEntry>());
    let attribute_count: usize = graph.vertices().map(|v| graph.attributes(v).len()).sum();
    let attribute_lists = offsets(n) + attribute_count * U32;
    let attribute_index = offsets(rdf.dictionaries().attributes.len()) + attribute_count * U32;
    // Per direction: one edge table (row offsets per vertex, a type and a
    // neighbour per edge instance) and type -> owning vertices. A root is
    // one (vertex, distinct type).
    let neighborhood_index: usize = [Direction::Incoming, Direction::Outgoing]
        .into_iter()
        .map(|direction| {
            let roots: usize = graph
                .vertices()
                .map(|v| {
                    let mut types: Vec<_> = graph
                        .edges(v, direction)
                        .iter()
                        .map(|e| e.edge_type())
                        .collect();
                    types.sort_unstable();
                    types.dedup();
                    types.len()
                })
                .sum();
            offsets(n)
                + graph.edge_instance_count() * 2 * U32
                + offsets(graph.edge_type_count())
                + roots * U32
        })
        .sum();
    // `S`: one synopsis per vertex as eight `u32`s, one `u32` vertex id
    // per R-tree leaf slot, and one MBR (eight `i64` minima and maxima) per
    // node. Leaves are packed full, so there are ⌈n/16⌉ of them, and each
    // level above has a sixteenth of the nodes below, up to one root.
    let mut level = n.div_ceil(16);
    let mut nodes = level;
    while level > 1 {
        level = level.div_ceil(16);
        nodes += level;
    }
    let signature_index = n * 8 * U32 + n * U32 + nodes * 2 * 8 * 8;
    [
        ("dictionaries", dictionaries),
        ("adjacency", adjacency),
        ("attribute_lists", attribute_lists),
        ("attribute_index", attribute_index),
        ("signature_index", signature_index),
        ("neighborhood_index", neighborhood_index),
    ]
}

#[test]
fn every_pool_is_exact_size_by_text_and_by_snapshot() {
    for (benchmark, seed) in [(Benchmark::Dbpedia, 5), (Benchmark::Lubm, 5)] {
        let text = write_ntriples(&benchmark.generate(1, seed));
        let from_text = AmberEngine::load_ntriples(&text).unwrap();
        let image = from_text.rdf().to_snapshot();
        let from_snapshot = AmberEngine::from_graph(RdfGraph::from_snapshot(&image).unwrap());
        for (route, engine) in [("text", &from_text), ("snapshot", &from_snapshot)] {
            let parts = engine.offline_stats().parts();
            for (part, exact) in exact_part_bytes(engine.rdf()) {
                let (_, ledger) = parts.iter().find(|(name, _)| *name == part).unwrap();
                assert_eq!(
                    *ledger, exact,
                    "{benchmark:?} {route}: {part} carries slack"
                );
            }
        }
    }
}

/// The offline ledger of the benchmark's graph at `scale` (DBpedia-like,
/// seed 1): each `amber_resident_bytes` part, and the total in B/triple.
fn ledger(scale: u32, triples: usize) -> ([(&'static str, usize); 6], f64) {
    let text = write_ntriples(&Benchmark::Dbpedia.generate(scale, 1));
    let engine = AmberEngine::load_ntriples(&text).unwrap();
    assert_eq!(
        engine.rdf().stats().triples,
        triples,
        "the generator changed: re-measure the ceilings"
    );
    let parts = engine.offline_stats().parts();
    let total: usize = parts.iter().map(|(_, bytes)| bytes).sum();
    (parts, total as f64 / triples as f64)
}

/// The resident-bytes ceiling of the offline stage on the benchmark's
/// graph (DBpedia-like, scale 25, seed 1: 391,667 triples). The ledger is
/// deterministic, so each part is held at or below the bytes it measured
/// when its exact-size layout landed, and the total at 51.2 B/triple
/// (130.64 before the pooled graph, 101.75 before the pooled `S`, 88.29
/// before the adjacency kept one 8-byte entry per edge instance, 63.65
/// before `N` became one edge table per direction, 57.88 before the
/// dictionaries stored each attribute predicate once and used 4-byte
/// slots; 51.15 since).
#[test]
#[ignore = "loads 391k triples; run in release: cargo test --release --test load_path -- --ignored"]
fn resident_bytes_stay_under_the_ceiling() {
    let (parts, per_triple) = ledger(25, 391_667);
    let ceilings = [
        ("dictionaries", 3_919_442),
        ("adjacency", 5_231_048),
        ("attribute_lists", 558_892),
        ("attribute_index", 521_176),
        ("signature_index", 2_226_880),
        ("neighborhood_index", 7_574_412),
    ];
    for ((part, bytes), (name, ceiling)) in parts.into_iter().zip(ceilings) {
        assert_eq!(part, name);
        assert!(bytes <= ceiling, "{part}: {bytes} B > {ceiling} B");
    }
    assert!(per_triple <= 51.2, "{per_triple:.2} B/triple > 51.2");
}

/// The same ceiling at scale 33 (515,281 triples), where the vertex count
/// lies just past a power of 16 and STR slabs of `⌈n/16⌉` used to leave
/// about two synopses per R-tree leaf: the total read 118.90 B/triple, `S`
/// alone 36.66. Full leaves hold `S` at the same ≈ 5.7 B/triple as at
/// scale 25, and the total read 87.94 before the 8-byte adjacency entry,
/// 63.32 before the edge table for `N`, 57.55 before the smaller
/// dictionaries, 51.16 since.
#[test]
#[ignore = "loads 515k triples; run in release: cargo test --release --test load_path -- --ignored"]
fn resident_bytes_stay_under_the_ceiling_past_a_power_of_16() {
    let (parts, per_triple) = ledger(33, 515_281);
    let (_, signature_index) = parts[4];
    assert!(
        signature_index as f64 / 515_281.0 <= 5.8,
        "signature_index: {signature_index} B"
    );
    assert!(per_triple <= 51.2, "{per_triple:.2} B/triple > 51.2");
}

/// The text route against the reference transformation at the benchmark's
/// scale: the snapshot image of `RdfGraph::parse_ntriples` must equal the
/// one built the obvious way (ordered maps, hashed first-seen interning),
/// on both generators and two seeds. The crate's own oracle runs on small
/// documents; this one covers subject runs, id ranges and row lengths of
/// real size.
#[test]
#[ignore = "builds four graphs of up to 392k triples twice; run in release: cargo test --release --test load_path -- --ignored"]
fn the_text_route_builds_the_reference_image_at_scale() {
    for benchmark in [Benchmark::Dbpedia, Benchmark::Lubm] {
        for seed in [1, 2] {
            let text = write_ntriples(&benchmark.generate(25, seed));
            let image = RdfGraph::parse_ntriples(&text).unwrap().to_snapshot();
            let expected = reference::reference_snapshot(&parse_ntriples(&text).unwrap(), false);
            // Not `assert_eq!`: the images are megabytes long.
            let first_difference = image.iter().zip(&expected).position(|(a, b)| a != b);
            assert!(
                image.len() == expected.len() && first_difference.is_none(),
                "{benchmark:?} seed {seed}: {} vs {} bytes, first difference at {first_difference:?}",
                image.len(),
                expected.len()
            );
        }
    }
}
