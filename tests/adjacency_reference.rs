//! The data graph's adjacency against the pair model of the offline
//! transformation (`crates/multigraph/src/reference.rs`: one ordered type
//! set per vertex pair). The graph stores one entry per edge instance and
//! reads a multi-edge as a run of entries; on graphs with self-loops,
//! duplicate triples, parallel types, blank nodes and (in the extension
//! mode) literal vertices, every pair's run, every lookup, every count,
//! every synopsis and every list and probe of the neighbourhood index `N`
//! must equal what the model says. The two checks the search answers from
//! the index set alone, `N`'s edge check (ground edge patterns and
//! self-loops) and `A`'s attribute check (ground attribute patterns), are
//! held to the model's pairs and to the graph's attribute sets.

// Only the pair model is used here, not the image writer.
#[allow(dead_code)]
#[path = "../crates/multigraph/src/reference.rs"]
mod reference;

use amber_index::otil::ProbeResult;
use amber_index::{AttributeIndex, NeighborhoodIndex, SignatureIndex};
use amber_multigraph::{
    AdjEntry, AttrId, Direction, EdgeTypeId, GraphBuilder, GraphConfig, Synopsis, VertexId,
    VertexSignature,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rdf_model::{BlankNode, Iri, Literal, Object, Subject, Triple};
use reference::Model;
use std::collections::{BTreeMap, BTreeSet};

/// Small vocabularies, so that triples repeat, pairs carry several types
/// and subjects meet objects (self-loops). Subjects 6 and 7 and objects of
/// kind 1 are blank nodes; objects of kind 2 are literals.
fn arb_triples() -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec((0u8..8, 0u8..4, 0u8..10, 0u8..4), 0..60).prop_map(|rows| {
        rows.into_iter()
            .map(|(s, p, o, kind)| {
                let subject = match s {
                    6.. => Subject::Blank(BlankNode::new(format!("b{s}"))),
                    _ => Subject::Iri(Iri::new(format!("http://v/{s}"))),
                };
                let object = match kind {
                    1 => Object::Blank(BlankNode::new(format!("b{o}"))),
                    2 => Object::Literal(Literal::plain(format!("lit{o}"))),
                    _ => Object::Iri(Iri::new(format!("http://v/{o}"))),
                };
                Triple::new(subject, Iri::new(format!("http://p/{p}")), object)
            })
            .collect()
    })
}

/// Per vertex, its neighbours in one direction and the types of each pair.
type Half = Vec<BTreeMap<u32, Vec<u32>>>;

/// The model's pairs as outgoing and incoming halves.
fn halves(model: &Model) -> (Half, Half) {
    let n = model.vertex_count();
    let (mut out, mut inc) = (vec![BTreeMap::new(); n], vec![BTreeMap::new(); n]);
    for (&(from, to), types) in &model.pairs {
        let types: Vec<u32> = types.iter().copied().collect();
        out[from as usize].insert(to, types.clone());
        inc[to as usize].insert(from, types);
    }
    (out, inc)
}

/// Table 3's four fields of one direction, from its pairs' type sets.
fn features(pairs: &BTreeMap<u32, Vec<u32>>) -> [i64; 4] {
    let distinct: BTreeSet<u32> = pairs.values().flatten().copied().collect();
    match (distinct.first(), distinct.last()) {
        (Some(&min), Some(&max)) => {
            let f1 = pairs.values().map(Vec::len).max().unwrap_or(0);
            [
                f1 as i64,
                distinct.len() as i64,
                -i64::from(min),
                i64::from(max),
            ]
        }
        _ => [0; 4],
    }
}

fn types_of(run: &[AdjEntry]) -> Vec<u32> {
    run.iter().map(|e| e.edge_type().0).collect()
}

fn agrees_with_the_pair_model(
    triples: &[Triple],
    literals_as_vertices: bool,
) -> Result<(), TestCaseError> {
    let model = Model::of(triples, literals_as_vertices);
    let mut builder = GraphBuilder::with_config(GraphConfig {
        literals_as_vertices,
    });
    builder.add_triples(triples);
    let rdf = builder.finish();
    let graph = rdf.graph();
    let n = model.vertex_count();
    prop_assert_eq!(graph.vertex_count(), n);
    prop_assert_eq!(graph.edge_pair_count(), model.pairs.len());
    let instances: usize = model.pairs.values().map(BTreeSet::len).sum();
    prop_assert_eq!(graph.edge_instance_count(), instances);

    let (out, inc) = halves(&model);
    let directions = [(Direction::Outgoing, &out), (Direction::Incoming, &inc)];
    for v in 0..n {
        let vertex = VertexId::from_index(v);
        for (direction, half) in directions {
            let runs: Vec<(u32, Vec<u32>)> = graph
                .multi_edges(vertex, direction)
                .map(|run| (run[0].neighbor.0, types_of(run)))
                .collect();
            let expected: Vec<(u32, Vec<u32>)> =
                half[v].iter().map(|(&w, t)| (w, t.clone())).collect();
            prop_assert_eq!(runs, expected, "{:?} {:?}", vertex, direction);
            let instances: usize = half[v].values().map(Vec::len).sum();
            prop_assert_eq!(graph.edges(vertex, direction).len(), instances);
        }
        let neighbors: BTreeSet<&u32> = out[v].keys().chain(inc[v].keys()).collect();
        prop_assert_eq!(graph.degree(vertex), neighbors.len());
    }

    // Every ordered pair, with no type, each type (and one past the
    // dictionary) and each two types required.
    let type_count = graph.edge_type_count() as u32;
    for from in 0..n as u32 {
        for to in 0..n as u32 {
            let (f, t) = (VertexId(from), VertexId(to));
            let types = model.pairs.get(&(from, to));
            let carries = |required: &[u32]| {
                types.is_some_and(|types| required.iter().all(|r| types.contains(r)))
            };
            let expected: Vec<u32> = types.into_iter().flatten().copied().collect();
            prop_assert_eq!(types_of(graph.multi_edge(f, t)), expected);
            prop_assert_eq!(graph.has_multi_edge(f, t, &[]), types.is_some());
            for a in 0..=type_count {
                let one = [EdgeTypeId(a)];
                prop_assert_eq!(graph.has_multi_edge(f, t, &one), carries(&[a]));
                for b in a + 1..=type_count {
                    let two = [EdgeTypeId(a), EdgeTypeId(b)];
                    prop_assert_eq!(graph.has_multi_edge(f, t, &two), carries(&[a, b]));
                }
            }
        }
    }

    let signature = SignatureIndex::build(graph);
    for (v, stored) in Synopsis::of_data_vertices(graph).enumerate() {
        let vertex = VertexId::from_index(v);
        let [i1, i2, i3, i4] = features(&inc[v]);
        let [o1, o2, o3, o4] = features(&out[v]);
        let expected = Synopsis([i1, i2, i3, i4, o1, o2, o3, o4]);
        prop_assert_eq!(stored, expected, "{:?}", vertex);
        prop_assert_eq!(Synopsis::of_data_vertex(graph, vertex), expected);
        prop_assert_eq!(signature.synopsis_of(vertex), expected);
        let cloned = VertexSignature::of_data_vertex(graph, vertex).synopsis();
        prop_assert_eq!(cloned, expected);
    }

    let index = NeighborhoodIndex::build(graph);
    for (direction, half) in directions {
        for t in 0..=type_count {
            let mut owners = Vec::new();
            for (v, pairs) in half.iter().enumerate() {
                let vertex = VertexId::from_index(v);
                let expected: Vec<VertexId> = pairs
                    .iter()
                    .filter(|(_, types)| types.contains(&t))
                    .map(|(&w, _)| VertexId(w))
                    .collect();
                let list = index.neighbors_with_type(vertex, direction, EdgeTypeId(t));
                prop_assert_eq!(list, &expected[..], "{:?} {:?} t{}", vertex, direction, t);
                if !expected.is_empty() {
                    owners.push(vertex);
                }
            }
            let listed = index.vertices_with_type(direction, EdgeTypeId(t));
            prop_assert_eq!(listed, &owners[..], "{:?} t{}", direction, t);
        }
    }

    // The rest of `N`'s surface: no type, and one, two and three types
    // (one past the dictionary included) through every public probe.
    let mut type_sets: Vec<Vec<EdgeTypeId>> = vec![vec![]];
    for a in 0..=type_count {
        type_sets.push(vec![EdgeTypeId(a)]);
        for b in a + 1..=type_count {
            type_sets.push(vec![EdgeTypeId(a), EdgeTypeId(b)]);
            for c in b + 1..=type_count {
                type_sets.push(vec![EdgeTypeId(a), EdgeTypeId(b), EdgeTypeId(c)]);
            }
        }
    }
    let untouched = [VertexId(u32::MAX)];
    for (direction, half) in directions {
        for (v, pairs) in half.iter().enumerate() {
            let vertex = VertexId::from_index(v);
            for required in &type_sets {
                let expected: Vec<VertexId> = pairs
                    .iter()
                    .filter(|(_, types)| required.iter().all(|r| types.contains(&r.0)))
                    .map(|(&w, _)| VertexId(w))
                    .collect();
                let at = format!("{vertex:?} {direction:?} {required:?}");
                prop_assert_eq!(
                    &index.neighbors(vertex, direction, required),
                    &expected,
                    "{}",
                    at
                );
                prop_assert_eq!(
                    index.has_neighbor(vertex, direction, required),
                    !expected.is_empty(),
                    "{}",
                    at
                );
                prop_assert!(
                    index.probe_len_hint(vertex, direction, required) >= expected.len(),
                    "{}",
                    at
                );
                let mut spill = untouched.to_vec();
                let probed = index.probe(vertex, direction, required, &mut spill);
                prop_assert_eq!(probed.as_slice(&spill), &expected[..], "{}", at);
                if required.len() == 1 {
                    prop_assert!(matches!(probed, ProbeResult::Borrowed(_)), "{}", at);
                    prop_assert_eq!(&spill[..], &untouched[..], "{}", at);
                } else {
                    prop_assert_eq!(probed, ProbeResult::Spilled, "{}", at);
                }
            }
        }
    }

    // The edge check, for every ordered pair (self-loops included) and
    // every type set above; no type asks for some edge.
    for from in 0..n as u32 {
        for to in 0..n as u32 {
            let (f, t) = (VertexId(from), VertexId(to));
            let types = model.pairs.get(&(from, to));
            for required in &type_sets {
                let carries =
                    types.is_some_and(|types| required.iter().all(|r| types.contains(&r.0)));
                prop_assert_eq!(
                    index.has_edge(f, t, required),
                    carries,
                    "{:?} -> {:?} {:?}",
                    f,
                    t,
                    required
                );
            }
        }
    }

    // The attribute check against each vertex's attribute set, for no
    // attribute and every one and two (one past the dictionary included).
    let attributes = AttributeIndex::build(&rdf);
    let attr_count = rdf.dictionaries().attributes.len() as u32;
    let mut attr_sets: Vec<Vec<AttrId>> = vec![vec![]];
    for a in 0..=attr_count {
        attr_sets.push(vec![AttrId(a)]);
        for b in a + 1..=attr_count {
            attr_sets.push(vec![AttrId(a), AttrId(b)]);
        }
    }
    for v in graph.vertices() {
        let owned = graph.attributes(v);
        for required in &attr_sets {
            prop_assert_eq!(
                attributes.has_attributes(v, required),
                required.iter().all(|a| owned.contains(a)),
                "{:?} {:?}",
                v,
                required
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_adjacency_reads_back_the_pair_model(triples in arb_triples()) {
        for literals_as_vertices in [false, true] {
            agrees_with_the_pair_model(&triples, literals_as_vertices)?;
        }
    }
}
