//! Property-based tests over the full pipeline: random triplesets, random
//! queries, invariants that must hold for any input.

use amber::{AmberEngine, ExecOptions};
use amber_baselines::all_engines;
use amber_multigraph::RdfGraph;
use proptest::prelude::*;
use rdf_model::{parse_ntriples, write_ntriples, Iri, Literal, Triple};
use std::sync::Arc;

/// Strategy: a small universe of entities/predicates keeps graphs dense
/// enough for queries to match.
fn arb_triple() -> impl Strategy<Value = Triple> {
    let entity = (0u8..8).prop_map(|i| format!("http://t/e{i}"));
    let predicate = (0u8..4).prop_map(|i| format!("http://t/p{i}"));
    let literal = (0u8..4).prop_map(|i| format!("lit{i}"));
    (
        entity.clone(),
        predicate,
        prop_oneof![entity, literal.prop_map(|l| format!("\"{l}\""))],
    )
        .prop_map(|(s, p, o)| {
            if let Some(lex) = o.strip_prefix('"') {
                Triple::new(
                    Iri::new(s),
                    Iri::new(p),
                    Literal::plain(lex.trim_end_matches('"')),
                )
            } else {
                Triple::resource(&s, &p, &o)
            }
        })
}

fn arb_triples() -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec(arb_triple(), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// N-Triples serialization round-trips for arbitrary triples.
    #[test]
    fn ntriples_round_trip(triples in arb_triples()) {
        let doc = write_ntriples(&triples);
        let back = parse_ntriples(&doc).expect("own output parses");
        prop_assert_eq!(back, triples);
    }

    /// Graph construction is order-insensitive for stats (set semantics).
    #[test]
    fn graph_stats_order_insensitive(mut triples in arb_triples()) {
        let forward = RdfGraph::from_triples(&triples).stats();
        triples.reverse();
        let mut backward = RdfGraph::from_triples(&triples).stats();
        // triple_count counts duplicates; normalize the comparison.
        backward.triples = forward.triples;
        prop_assert_eq!(forward, backward);
    }

    /// Every engine agrees with every other on 2-pattern path queries over
    /// arbitrary graphs — including the empty-result cases that workload
    /// generation never produces.
    #[test]
    fn engines_agree_on_random_paths(
        triples in arb_triples(),
        p1 in 0u8..4,
        p2 in 0u8..4,
    ) {
        let rdf = Arc::new(RdfGraph::from_triples(&triples));
        let query = format!(
            "SELECT * WHERE {{ ?a <http://t/p{p1}> ?b . ?b <http://t/p{p2}> ?c . }}"
        );
        let engines = all_engines(rdf);
        let counts: Vec<u128> = engines
            .iter()
            .map(|e| {
                e.execute_sparql(&query, &ExecOptions::default().counting())
                    .expect("executes")
                    .embedding_count
            })
            .collect();
        prop_assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "disagreement {:?} on {}\n{}",
            counts, query, write_ntriples(&triples)
        );
    }

    /// Engines agree on star queries with a constant-literal ray.
    #[test]
    fn engines_agree_on_attribute_stars(
        triples in arb_triples(),
        p1 in 0u8..4,
        p2 in 0u8..4,
        lit in 0u8..4,
    ) {
        let rdf = Arc::new(RdfGraph::from_triples(&triples));
        let query = format!(
            "SELECT * WHERE {{ ?x <http://t/p{p1}> ?y . ?x <http://t/p{p2}> \"lit{lit}\" . }}"
        );
        let engines = all_engines(rdf);
        let counts: Vec<u128> = engines
            .iter()
            .map(|e| {
                e.execute_sparql(&query, &ExecOptions::default().counting())
                    .expect("executes")
                    .embedding_count
            })
            .collect();
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]), "{:?}", counts);
    }

    /// max_results caps bindings without changing the count, for any graph.
    #[test]
    fn max_results_is_only_a_cap(triples in arb_triples(), cap in 1usize..5) {
        let engine = AmberEngine::from_triples(&triples);
        let query = "SELECT * WHERE { ?a <http://t/p0> ?b . }";
        let full = engine.execute(query, &ExecOptions::default()).unwrap();
        let capped = engine
            .execute(query, &ExecOptions::default().with_max_results(cap))
            .unwrap();
        prop_assert_eq!(full.embedding_count, capped.embedding_count);
        prop_assert!(capped.bindings.len() <= cap);
        prop_assert_eq!(
            capped.bindings.len(),
            full.bindings.len().min(cap)
        );
    }

    /// DISTINCT bindings are unique and a subset of the plain bindings.
    #[test]
    fn distinct_rows_are_unique(triples in arb_triples()) {
        let engine = AmberEngine::from_triples(&triples);
        let query = "SELECT DISTINCT ?a WHERE { ?a <http://t/p1> ?b . }";
        let outcome = engine.execute(query, &ExecOptions::default()).unwrap();
        let mut rows = outcome.bindings.to_vec();
        rows.sort();
        let before = rows.len();
        rows.dedup();
        prop_assert_eq!(rows.len(), before, "DISTINCT produced duplicates");
    }
}
