//! Property test holding `ProcessVertex` (paper Algorithm 1) to its
//! definition.
//!
//! [`process_vertex`] answers through the indexes: an attribute-set
//! intersection over `A` and OTIL probes over `N` (a borrowed list for a
//! single type, a computed one for a type set). The oracle here touches
//! neither index: a data vertex passes when it owns every required
//! attribute (`DataGraph::has_attributes`) and carries every required
//! multi-edge to or from each constant (`DataGraph::has_multi_edge`) —
//! Definition 2's conditions, checked vertex by vertex, with every id
//! resolved from the pattern's own spelling rather than from the query
//! graph.
//!
//! The graphs are dense (12 vertices, 5 predicates), so vertex pairs carry
//! parallel edge types and multi-type probes are non-trivial. Every random
//! constraint is tried as given and as its reversal (a permutation), a
//! strict prefix (a subset) and an extension (a superset), in both
//! directions, on attribute-only, IRI-only and mixed vertices. All of it
//! runs in one set of arenas, so a scratch buffer reused across calls
//! must never leak one answer into the next.

use amber::candidates::{process_vertex, Constraint};
use amber::matcher::SearchArenas;
use amber_index::IndexSet;
use amber_multigraph::{QueryGraph, RdfGraph, VertexId};
use amber_sparql::parse_select;
use proptest::prelude::*;
use rdf_model::Literal;

const PREDICATES: u32 = 5;
const VERTICES: u64 = 12;
const ATTR_PREDICATES: u32 = 3;
const ATTR_VALUES: u32 = 3;

fn vertex(i: u64) -> String {
    format!("http://c/v{i}")
}

fn predicate(p: u32) -> String {
    format!("http://c/p{p}")
}

fn attr_predicate(a: u32) -> String {
    format!("http://c/a{a}")
}

/// A dense random multigraph over few vertices and predicates, plus a
/// literal attribute on roughly every third vertex draw.
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
            "<{}> <{}> <{}> .\n",
            vertex(s),
            predicate(p as u32),
            vertex(o)
        ));
        if next() % 3 == 0 {
            let a = next() % ATTR_PREDICATES as u64;
            let value = next() % ATTR_VALUES as u64;
            doc.push_str(&format!(
                "<{}> <{}> \"{value}\" .\n",
                vertex(s),
                attr_predicate(a as u32)
            ));
        }
    }
    RdfGraph::parse_ntriples(&doc).expect("generated n-triples parse")
}

/// One IRI constraint on `?x`: the constant's index, whether the edge runs
/// constant → `?x`, and its (possibly duplicated, unsorted) predicates.
type IriSpec = (u64, bool, Vec<u32>);
/// One attribute constraint on `?x`: attribute predicate and literal value.
type AttrSpec = (u32, u32);

/// The triple patterns of `?x`'s constraints (plus an unconstrained
/// neighbour `?y` when `with_neighbour`).
fn query_text(iris: &[IriSpec], attrs: &[AttrSpec], with_neighbour: bool) -> String {
    let mut text = String::from("SELECT * WHERE { ");
    for (c, incoming, types) in iris {
        for &p in types {
            let (p, c) = (predicate(p), vertex(*c));
            text.push_str(&if *incoming {
                format!("<{c}> <{p}> ?x . ")
            } else {
                format!("?x <{p}> <{c}> . ")
            });
        }
    }
    for &(a, value) in attrs {
        text.push_str(&format!("?x <{}> \"{value}\" . ", attr_predicate(a)));
    }
    if with_neighbour {
        text.push_str(&format!("?x <{}> ?y . ", predicate(0)));
    }
    text.push('}');
    text
}

/// Algorithm 1 by brute force over the data graph: `None` when a term of
/// the patterns is absent from the data (the query is unsatisfiable).
fn brute_force(rdf: &RdfGraph, iris: &[IriSpec], attrs: &[AttrSpec]) -> Option<Constraint> {
    if iris.is_empty() && attrs.is_empty() {
        return Some(Constraint::Unconstrained);
    }
    let mut required_attrs = Vec::new();
    for &(a, value) in attrs {
        let literal = Literal::plain(value.to_string());
        required_attrs.push(rdf.dictionaries().attribute(&attr_predicate(a), &literal)?);
    }
    required_attrs.sort_unstable();
    required_attrs.dedup();
    let mut edges = Vec::new();
    for (c, incoming, types) in iris {
        let c = rdf.vertex_by_key(&vertex(*c))?;
        let mut types = types
            .iter()
            .map(|&p| rdf.edge_type_by_iri(&predicate(p)))
            .collect::<Option<Vec<_>>>()?;
        types.sort_unstable();
        types.dedup();
        edges.push((c, *incoming, types));
    }
    let graph = rdf.graph();
    let passes = |v: VertexId| {
        graph.has_attributes(v, &required_attrs)
            && edges.iter().all(|(c, incoming, types)| {
                if *incoming {
                    graph.has_multi_edge(*c, v, types)
                } else {
                    graph.has_multi_edge(v, *c, types)
                }
            })
    };
    Some(Constraint::Candidates(
        graph.vertices().filter(|&v| passes(v)).collect(),
    ))
}

/// The spec as given, reversed (a permutation), without its last type (a
/// subset) and with one more type (a superset).
fn type_set_variants(types: &[u32]) -> Vec<Vec<u32>> {
    let mut variants = vec![types.to_vec(), types.iter().rev().copied().collect()];
    if types.len() > 1 {
        variants.push(types[..types.len() - 1].to_vec());
    }
    let mut extended = types.to_vec();
    extended.push(types.len() as u32 % PREDICATES);
    variants.push(extended);
    variants
}

fn iri_strategy() -> impl Strategy<Value = Vec<IriSpec>> {
    prop::collection::vec(
        (
            0u64..VERTICES,
            any::<bool>(),
            prop::collection::vec(0u32..PREDICATES, 1..4),
        ),
        1..3,
    )
}

fn attr_strategy() -> impl Strategy<Value = Vec<AttrSpec>> {
    prop::collection::vec((0u32..ATTR_PREDICATES, 0u32..ATTR_VALUES), 1..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn process_vertex_matches_brute_force(
        graph_seed in 0u64..64,
        triples in 60usize..220,
        iris in iri_strategy(),
        attrs in attr_strategy(),
        with_neighbour in any::<bool>(),
    ) {
        let rdf = dense_graph(graph_seed, triples);
        let index = IndexSet::build(&rdf);
        let mut arenas = SearchArenas::new();

        // Each IRI constraint through its type-set variants, in its own
        // direction and flipped; the other constraints stay as drawn.
        let mut iri_sets = vec![iris.clone()];
        for (i, (c, incoming, types)) in iris.iter().enumerate() {
            for variant in type_set_variants(types) {
                for direction in [*incoming, !*incoming] {
                    let mut set = iris.clone();
                    set[i] = (*c, direction, variant.clone());
                    iri_sets.push(set);
                }
            }
        }
        let mut cases: Vec<(Vec<IriSpec>, Vec<AttrSpec>)> = vec![(Vec::new(), attrs.clone())];
        for set in iri_sets {
            cases.push((set.clone(), Vec::new()));
            cases.push((set, attrs.clone()));
        }

        for (iris, attrs) in &cases {
            let text = query_text(iris, attrs, with_neighbour);
            let qg = QueryGraph::build(&parse_select(&text).unwrap(), &rdf).unwrap();
            let Some(expected) = brute_force(&rdf, iris, attrs) else {
                prop_assert!(qg.is_unsatisfiable(), "a missing term must make {} unsatisfiable", text);
                continue;
            };
            let x = qg.vertex_by_name("x").unwrap();
            prop_assert_eq!(process_vertex(&qg, x, &index, &mut arenas), expected, "{}", &text);
            if let Some(y) = qg.vertex_by_name("y") {
                prop_assert_eq!(
                    process_vertex(&qg, y, &index, &mut arenas),
                    Constraint::Unconstrained,
                    "{}", &text
                );
            }
        }
    }
}
