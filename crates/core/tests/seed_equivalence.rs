//! The component seed set: type-incidence seeding against the paper's
//! synopsis seeding.
//!
//! `ComponentPrep` seeds a component from the intersection of the OTIL's
//! type-major lists (`NeighborhoodIndex::vertices_with_type`) where
//! Algorithm 3 line 4 walks the synopsis index `S`. Both are sorted
//! supersets of the initial vertex's true matches, so the search must
//! return the same solutions in the same order from either — only the
//! number of dead root candidates differs. These tests pin that, and pin
//! the size of the new seed set against a brute-force count. A seed vertex
//! without a typed edge has no list to intersect: its seed must equal the
//! synopsis seed exactly.

mod constant_star;

use amber::candidates::{process_vertex, satisfies_self_loop};
use amber::matcher::{ComponentMatcher, MatchConfig, SearchArenas};
use amber_datagen::Benchmark;
use amber_index::IndexSet;
use amber_multigraph::{Direction, EdgeTypeId, QueryGraph, RdfGraph, VertexId};
use amber_sparql::parse_select;
use amber_util::Deadline;
use proptest::prelude::*;
use rdf_model::{Iri, Literal, Triple};

/// Algorithm 3 lines 4-5 as the paper has them: `QuerySynIndex(u_init, S)`
/// refined by `ProcessVertex` (and the self-loop check the matcher applies
/// to its seed set at build time).
fn synopsis_seed(
    qg: &QueryGraph,
    rdf: &RdfGraph,
    index: &IndexSet,
    matcher: &ComponentMatcher<'_>,
) -> Vec<VertexId> {
    let u_init = matcher.core_order()[0];
    let mut seed = index
        .signature
        .candidates(&qg.signature(u_init).query_synopsis());
    process_vertex(qg, u_init, index, &mut SearchArenas::new()).filter(&mut seed);
    seed.retain(|&v| satisfies_self_loop(qg, u_init, rdf.graph(), v));
    seed
}

/// A small dense multigraph: parallel predicates between a pair, self-loops
/// and a few literal attributes all occur.
fn arb_graph() -> impl Strategy<Value = Vec<Triple>> {
    let edges = prop::collection::vec((0u8..14, 0u8..5, 0u8..14), 1..160);
    let attrs = prop::collection::vec((0u8..14, 0u8..2, 0u8..3), 0..12);
    (edges, attrs).prop_map(|(edges, attrs)| {
        let edges = edges.into_iter().map(|(s, p, o)| {
            Triple::resource(
                &format!("http://g/v{s}"),
                &format!("http://g/p{p}"),
                &format!("http://g/v{o}"),
            )
        });
        let attrs = attrs.into_iter().map(|(s, p, val)| {
            Triple::new(
                Iri::new(format!("http://g/v{s}")),
                Iri::new(format!("http://g/a{p}")),
                Literal::plain(format!("val{val}")),
            )
        });
        edges.chain(attrs).collect()
    })
}

/// One triple pattern: subject and object are one of four variables
/// (`0..4`) or a constant vertex (`4..7` → `v0..v2`); `attr` turns it into
/// an attribute pattern on the subject instead.
type ArbPattern = (u8, u8, u8, bool);

fn arb_patterns() -> impl Strategy<Value = Vec<ArbPattern>> {
    prop::collection::vec((0u8..7, 0u8..5, 0u8..7, any::<bool>()), 1..6)
}

fn query_text(patterns: &[ArbPattern]) -> String {
    let term = |t: u8| match t {
        0..=3 => format!("?x{t}"),
        _ => format!("<http://g/v{}>", t - 4),
    };
    let mut text = String::from("SELECT * WHERE { ");
    for (i, &(s, p, o, attr)) in patterns.iter().enumerate() {
        // Some third patterns become attribute requirements on a variable
        // subject (`ProcessVertex`'s `C^A`).
        if attr && i % 3 == 2 && s < 4 {
            text.push_str(&format!(
                "{} <http://g/a{}> \"val{}\" . ",
                term(s),
                p % 2,
                o % 3
            ));
        } else {
            text.push_str(&format!("{} <http://g/p{p}> {} . ", term(s), term(o)));
        }
    }
    text.push('}');
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For random queries over random graphs the search returns identical
    /// solutions in identical order whether it is rooted at the incidence
    /// seed (`run`) or at the synopsis seed (`run_on`); the incidence seed
    /// is the tighter of the two, and contains ψ(u_init) of every solution.
    #[test]
    fn incidence_seed_and_synopsis_seed_give_identical_solutions(
        triples in arb_graph(),
        patterns in arb_patterns(),
    ) {
        let rdf = RdfGraph::from_triples(&triples);
        let index = IndexSet::build(&rdf);
        let text = query_text(&patterns);
        let query = parse_select(&text).unwrap();
        let qg = QueryGraph::build(&query, &rdf).unwrap();
        prop_assume!(!qg.is_unsatisfiable());
        let deadline = Deadline::unlimited();
        let config = MatchConfig::new(&deadline, None);
        for component in qg.connected_components() {
            let matcher = ComponentMatcher::new(&qg, rdf.graph(), &index, &component);
            let paper_seed = synopsis_seed(&qg, &rdf, &index, &matcher);
            let seed = matcher.initial_candidates();
            prop_assert!(seed.windows(2).all(|w| w[0] < w[1]), "{text}: unsorted {seed:?}");
            prop_assert!(
                seed.iter().all(|v| paper_seed.binary_search(v).is_ok()),
                "{text}: {seed:?} is not within the synopsis seed {paper_seed:?}"
            );
            if matcher.seed_lists().is_empty() {
                // No incidence list: the synopses alone seeded it, read per
                // whitelisted vertex or walked in the R-tree — either way
                // exactly the paper's seed.
                prop_assert_eq!(seed, &paper_seed[..], "{}", text);
            }

            let from_lists = matcher.run(&config);
            let from_synopsis = matcher.run_on(&paper_seed, &config);
            prop_assert_eq!(from_lists.count, from_synopsis.count, "{}", text);
            prop_assert_eq!(&from_lists.solutions, &from_synopsis.solutions, "{}", text);
            prop_assert!(from_lists.nodes <= from_synopsis.nodes, "{text}");

            let u_init = matcher.core_order()[0];
            for solution in &from_lists.solutions {
                let (_, v) = solution.core.iter().find(|(u, _)| *u == u_init).unwrap();
                prop_assert!(seed.binary_search(v).is_ok(), "{text}: ψ(u_init) = {v:?} not seeded");
            }
        }
    }
}

/// The two most frequent outgoing edge types that at least one vertex
/// carries together (so the star below has answers).
fn frequent_out_type_pair(rdf: &RdfGraph) -> (EdgeTypeId, EdgeTypeId) {
    let graph = rdf.graph();
    let out_types = |v: VertexId| -> Vec<EdgeTypeId> {
        let mut types: Vec<EdgeTypeId> = graph.out_edges(v).iter().map(|e| e.edge_type()).collect();
        types.sort_unstable();
        types.dedup();
        types
    };
    let mut pairs = std::collections::BTreeMap::<(EdgeTypeId, EdgeTypeId), usize>::new();
    for v in graph.vertices() {
        let types = out_types(v);
        for (i, &a) in types.iter().enumerate() {
            for &b in &types[i + 1..] {
                *pairs.entry((a, b)).or_default() += 1;
            }
        }
    }
    let (&pair, _) = pairs
        .iter()
        .max_by_key(|(&pair, &n)| (n, std::cmp::Reverse(pair)))
        .expect("some vertex has two outgoing edge types");
    pair
}

#[test]
fn two_out_type_star_is_seeded_with_exactly_the_vertices_carrying_both() {
    for seed in [1u64, 7, 23] {
        let rdf = RdfGraph::from_triples(&Benchmark::Dbpedia.generate(1, seed));
        let graph = rdf.graph();
        let index = IndexSet::build(&rdf);
        let (a, b) = frequent_out_type_pair(&rdf);
        let text = format!(
            "SELECT * WHERE {{ ?x <{}> ?y . ?x <{}> ?z . }}",
            rdf.edge_type_name(a),
            rdf.edge_type_name(b)
        );
        let qg = QueryGraph::build(&parse_select(&text).unwrap(), &rdf).unwrap();
        let components = qg.connected_components();
        assert_eq!(components.len(), 1);
        let matcher = ComponentMatcher::new(&qg, graph, &index, &components[0]);
        assert_eq!(matcher.core_order().len(), 1, "a star has one core vertex");

        // Brute force over the adjacency, not over the index under test.
        let carries =
            |v: VertexId, t: EdgeTypeId| graph.out_edges(v).iter().any(|e| e.edge_type() == t);
        let both: Vec<VertexId> = graph
            .vertices()
            .filter(|&v| carries(v, a) && carries(v, b))
            .collect();
        assert!(!both.is_empty());
        assert_eq!(
            matcher.initial_candidates(),
            &both[..],
            "seed {seed}: {text}"
        );
        let lists = matcher.seed_lists();
        assert_eq!(lists.len(), 2);
        assert!(lists.iter().all(|l| l.direction == Direction::Outgoing));
        assert!(lists[0].len <= lists[1].len, "shortest list first");

        // Every seeded vertex is a match (both satellites resolve), so the
        // search visits exactly one node per seed candidate — where the
        // synopsis seed spends a node on every vertex with two or more
        // outgoing edges of any type.
        let deadline = Deadline::unlimited();
        let config = MatchConfig::new(&deadline, None);
        let result = matcher.run(&config);
        assert_eq!(result.nodes, both.len() as u64, "seed {seed}");
        assert_eq!(result.solutions.len(), both.len(), "seed {seed}");
        let paper_seed = synopsis_seed(&qg, &rdf, &index, &matcher);
        assert!(
            paper_seed.len() >= 2 * both.len(),
            "seed {seed}: synopsis seed {} vs incidence seed {}",
            paper_seed.len(),
            both.len()
        );
        let from_synopsis = matcher.run_on(&paper_seed, &config);
        assert_eq!(from_synopsis.nodes, paper_seed.len() as u64);
        assert_eq!(from_synopsis.solutions, result.solutions);
    }
}

#[test]
fn a_constant_anchored_seed_vertex_is_seeded_from_its_whitelist() {
    // `?x` only carries an IRI constraint: a singleton component with no
    // variable-variable edge, hence no incidence list to intersect.
    let rdf = amber_multigraph::paper::paper_graph();
    let index = IndexSet::build(&rdf);
    let text = format!(
        "SELECT * WHERE {{ ?x <{y}wasBornIn> <{x}London> . }}",
        y = amber_multigraph::paper::PREFIX_Y,
        x = amber_multigraph::paper::PREFIX_X
    );
    let qg = QueryGraph::build(&parse_select(&text).unwrap(), &rdf).unwrap();
    let components = qg.connected_components();
    let matcher = ComponentMatcher::new(&qg, rdf.graph(), &index, &components[0]);
    assert!(matcher.seed_lists().is_empty());
    assert_eq!(
        matcher.initial_candidates(),
        synopsis_seed(&qg, &rdf, &index, &matcher)
    );
    assert_eq!(matcher.initial_candidates(), &[VertexId(1), VertexId(7)]);
    let engine = amber::AmberEngine::from_graph(rdf);
    let explained =
        amber::QueryPlan::explain_prepared(&engine.prepare_sparql(&text).unwrap()).to_string();
    assert!(
        explained.contains("seed candidates: 2 of 9 via ProcessVertex(2) ∩ S\n"),
        "{explained}"
    );
}

#[test]
fn a_constant_star_is_seeded_with_exactly_the_paper_seed() {
    // The benchmark's single-variable stars: `?x` carries IRI and literal
    // constants only, so its whitelist — not |V| — bounds the seed.
    for seed in [1u64, 7, 23] {
        let triples = Benchmark::Dbpedia.generate(2, seed);
        let rdf = RdfGraph::from_triples(&triples);
        let index = IndexSet::build(&rdf);
        for text in constant_star::constant_stars(&triples).take(20) {
            assert_constant_star_seed(&rdf, &index, seed, &text);
        }
    }
}

fn assert_constant_star_seed(rdf: &RdfGraph, index: &IndexSet, seed: u64, text: &str) {
    let qg = QueryGraph::build(&parse_select(text).unwrap(), rdf).unwrap();
    assert!(!qg.is_unsatisfiable(), "seed {seed}: {text}");
    let components = qg.connected_components();
    assert_eq!(components.len(), 1, "seed {seed}: {text}");
    let matcher = ComponentMatcher::new(&qg, rdf.graph(), index, &components[0]);
    assert!(matcher.seed_lists().is_empty(), "seed {seed}: {text}");
    let paper_seed = synopsis_seed(&qg, rdf, index, &matcher);
    assert!(!paper_seed.is_empty(), "seed {seed}: {text}");
    assert_eq!(
        matcher.initial_candidates(),
        &paper_seed[..],
        "seed {seed}: {text}"
    );

    let deadline = Deadline::unlimited();
    let config = MatchConfig::new(&deadline, None);
    let result = matcher.run(&config);
    let from_synopsis = matcher.run_on(&paper_seed, &config);
    assert_eq!(result.count, from_synopsis.count, "seed {seed}: {text}");
    assert_eq!(
        result.solutions, from_synopsis.solutions,
        "seed {seed}: {text}"
    );
    assert!(result.count >= 1, "seed {seed}: {text}");
}

#[test]
fn a_multi_type_edge_must_sit_on_one_neighbour() {
    // v0 has p0 and p1, but towards different neighbours; only v3 owns the
    // multi-edge {p0, p1}. The incidence lists alone admit both — the
    // synopsis (max multi-edge cardinality) never admitted v0, and neither
    // may the seed set.
    let rdf = RdfGraph::parse_ntriples(
        "<http://m/v0> <http://m/p0> <http://m/v1> .\n\
         <http://m/v0> <http://m/p1> <http://m/v2> .\n\
         <http://m/v3> <http://m/p0> <http://m/v4> .\n\
         <http://m/v3> <http://m/p1> <http://m/v4> .\n",
    )
    .unwrap();
    let index = IndexSet::build(&rdf);
    let text = "SELECT * WHERE { ?a <http://m/p0> ?b . ?a <http://m/p1> ?b . }";
    let qg = QueryGraph::build(&parse_select(text).unwrap(), &rdf).unwrap();
    let components = qg.connected_components();
    let matcher = ComponentMatcher::new(&qg, rdf.graph(), &index, &components[0]);
    let v3 = rdf.vertex_by_key("http://m/v3").unwrap();
    let a = qg.vertex_by_name("a").unwrap();
    // Whichever end seeds the component, the seed is exact here.
    let expected = if matcher.core_order()[0] == a {
        v3
    } else {
        rdf.vertex_by_key("http://m/v4").unwrap()
    };
    assert_eq!(matcher.initial_candidates(), &[expected]);
    assert_eq!(matcher.seed_lists().len(), 2);
    assert_eq!(
        matcher.initial_candidates(),
        synopsis_seed(&qg, &rdf, &index, &matcher)
    );
    let deadline = Deadline::unlimited();
    let result = matcher.run(&MatchConfig::new(&deadline, None));
    assert_eq!((result.count, result.nodes), (1, 1));
}
