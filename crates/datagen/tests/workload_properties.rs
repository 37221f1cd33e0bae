//! Property-based tests for the workload generator: every generated query
//! must be well-formed, connected (complex), star-shaped (star), and
//! satisfiable on its source data with the identity assignment.

use amber_datagen::{Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::{QueryGraph, RdfGraph};
use amber_sparql::TermPattern;
use proptest::prelude::*;

fn graph_for(seed: u64) -> RdfGraph {
    RdfGraph::from_triples(&Benchmark::Lubm.generate(1, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn star_queries_are_stars(seed in 0u64..500, size in 3usize..20) {
        let rdf = graph_for(11);
        let mut gen = WorkloadGenerator::new(&rdf, seed);
        let Some(q) = gen.generate(&WorkloadConfig::new(QueryShape::Star, size)) else {
            return Ok(()); // no hub of this size — acceptable
        };
        prop_assert_eq!(q.query.patterns.len(), size);
        // Every pattern touches the center X0; no pattern links two rays.
        for p in &q.query.patterns {
            let touches = p.variables().any(|v| v == "X0");
            prop_assert!(touches, "ray without center: {}", p);
        }
        // The multigraph view: X0's component covers all variables.
        let qg = QueryGraph::build(&q.query, &rdf).unwrap();
        prop_assert!(!qg.is_unsatisfiable());
        prop_assert_eq!(qg.connected_components().len(), 1);
        // All non-center variables are satellites (degree 1).
        for u in qg.vertex_ids() {
            if qg.name(u) != "X0" {
                prop_assert!(qg.degree(u) <= 1);
            }
        }
    }

    #[test]
    fn complex_queries_are_connected_and_satisfiable(seed in 0u64..500, size in 3usize..25) {
        let rdf = graph_for(12);
        let mut gen = WorkloadGenerator::new(&rdf, seed);
        let Some(q) = gen.generate(&WorkloadConfig::new(QueryShape::Complex, size)) else {
            return Ok(());
        };
        prop_assert_eq!(q.query.patterns.len(), size);
        let qg = QueryGraph::build(&q.query, &rdf).unwrap();
        prop_assert!(!qg.is_unsatisfiable(), "{}", q.text);
        prop_assert_eq!(qg.connected_components().len(), 1, "{}", q.text);
        // Round-trips through the printer.
        prop_assert_eq!(&amber_sparql::parse_select(&q.text).unwrap(), &q.query);
    }

    #[test]
    fn constant_probability_zero_yields_pure_variable_queries(seed in 0u64..200) {
        let rdf = graph_for(13);
        let mut gen = WorkloadGenerator::new(&rdf, seed);
        let mut config = WorkloadConfig::new(QueryShape::Complex, 8);
        config.constant_iri_probability = 0.0;
        let Some(q) = gen.generate(&config) else { return Ok(()); };
        for p in &q.query.patterns {
            prop_assert!(
                !matches!(p.subject, TermPattern::Iri(_)),
                "constant subject at p=0: {}",
                p
            );
            // objects may still be constant *literals* (always injected)
            prop_assert!(
                !matches!(p.object, TermPattern::Iri(_)),
                "constant IRI object at p=0: {}",
                p
            );
        }
    }
}
